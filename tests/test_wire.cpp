// Tests for the wire codec: varints, byte strings, pids, typed payloads.
#include <gtest/gtest.h>

#include "net/wire.hpp"

namespace namecoh {
namespace {

TEST(Varint, RoundTripBoundaries) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xFFFFFFFFULL,
        0xFFFFFFFFFFFFFFFFULL}) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    std::span<const std::uint8_t> in(buf);
    auto back = get_varint(in);
    ASSERT_TRUE(back.is_ok()) << v;
    EXPECT_EQ(back.value(), v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Varint, EncodingSizes) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  put_varint(buf, ~0ULL);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(Varint, TruncatedFails) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 300);
  buf.pop_back();
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_varint(in).is_ok());
}

TEST(Varint, OverlongFails) {
  // 11 continuation bytes exceed 64 bits.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.push_back(0x01);
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_varint(in).is_ok());
}

TEST(Bytes, RoundTrip) {
  for (std::string s : {std::string(""), std::string("hello"),
                        std::string(1000, 'x'), std::string("\0\x01\xff", 3)}) {
    std::vector<std::uint8_t> buf;
    put_bytes(buf, s);
    std::span<const std::uint8_t> in(buf);
    auto back = get_bytes(in);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), s);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Bytes, TruncatedPayloadFails) {
  std::vector<std::uint8_t> buf;
  put_bytes(buf, "hello");
  buf.resize(buf.size() - 2);
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_bytes(in).is_ok());
}

TEST(WirePid, RoundTrip) {
  for (Pid pid : {Pid::self(), Pid{0, 0, 5}, Pid{0, 300, 5},
                  Pid{70000, 300, 5}}) {
    std::vector<std::uint8_t> buf;
    put_pid(buf, pid);
    std::span<const std::uint8_t> in(buf);
    auto back = get_pid(in);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), pid);
  }
}

TEST(WirePid, FieldOutOfRangeFails) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 0x1FFFFFFFFULL);  // > 32-bit addr
  put_varint(buf, 1);
  put_varint(buf, 1);
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_pid(in).is_ok());
}

TEST(Payload, BuildAndAccess) {
  Payload p;
  p.add_u64(42).add_string("hi").add_pid(Pid{1, 2, 3}).add_name("/a/b");
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.type_at(0), FieldType::kU64);
  EXPECT_EQ(p.u64_at(0), 42u);
  EXPECT_EQ(p.string_at(1), "hi");
  EXPECT_EQ(p.pid_at(2), (Pid{1, 2, 3}));
  EXPECT_EQ(p.name_at(3), "/a/b");
}

TEST(Payload, TypeMismatchThrows) {
  Payload p;
  p.add_u64(1);
  EXPECT_THROW((void)p.string_at(0), PreconditionError);
  EXPECT_THROW((void)p.pid_at(0), PreconditionError);
  EXPECT_THROW((void)p.u64_at(1), std::out_of_range);
}

TEST(Payload, PidAndNameIndices) {
  Payload p;
  p.add_pid(Pid{0, 0, 1}).add_u64(9).add_pid(Pid{0, 0, 2}).add_name("/x");
  EXPECT_EQ(p.pid_indices(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(p.name_indices(), (std::vector<std::size_t>{3}));
  p.set_pid(2, Pid{5, 5, 5});
  EXPECT_EQ(p.pid_at(2), (Pid{5, 5, 5}));
  p.set_name(3, "/y");
  EXPECT_EQ(p.name_at(3), "/y");
  EXPECT_THROW(p.set_pid(1, Pid{}), PreconditionError);
}

TEST(Payload, NameSliceTravelsAsTextAndReinterns) {
  const CompoundName sent = CompoundName::parse_relative("proj/src/main").value();
  Payload p;
  p.add_name(NameSlice{sent});
  EXPECT_EQ(p.name_at(0), "proj/src/main");

  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.is_ok());
  auto compound = CompoundName::parse_relative(back.value().name_at(0));
  ASSERT_TRUE(compound.is_ok());
  EXPECT_EQ(compound.value(), sent);

  Payload bad;
  bad.add_name("a//b");
  EXPECT_FALSE(CompoundName::parse_relative(bad.name_at(0)).is_ok());
}

TEST(Payload, EncodeDecodeRoundTrip) {
  Payload p;
  p.add_u64(0).add_u64(~0ULL).add_string("").add_string("data")
      .add_pid(Pid::self()).add_pid(Pid{9, 8, 7}).add_name("/vice/usr");
  auto bytes = p.encode();
  auto back = Payload::decode(bytes);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), p);
}

TEST(Payload, EmptyRoundTrip) {
  Payload p;
  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().size(), 0u);
}

TEST(Payload, DecodeRejectsGarbage) {
  // Unknown field type.
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1);
  buf.push_back(0x7E);  // bogus type tag
  EXPECT_FALSE(Payload::decode(buf).is_ok());
}

TEST(Payload, DecodeRejectsTruncation) {
  Payload p;
  p.add_string("hello world");
  auto bytes = p.encode();
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), bytes.size() - cut);
    EXPECT_FALSE(Payload::decode(prefix).is_ok()) << "cut=" << cut;
  }
}

TEST(Payload, DecodeRejectsTrailingBytes) {
  Payload p;
  p.add_u64(1);
  auto bytes = p.encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(Payload::decode(bytes).is_ok());
}

TEST(Payload, DecodeRejectsForgedFieldCountWithoutReservingIt) {
  // A count of 2^50 fields followed by two real ones. Reserving the count
  // would ask for petabytes and throw; decode bounds the reserve by the
  // bytes left and refuses the payload as truncated instead.
  std::vector<std::uint8_t> buf;
  put_varint(buf, std::uint64_t{1} << 50);
  buf.push_back(static_cast<std::uint8_t>(FieldType::kU64));
  put_varint(buf, 7);
  buf.push_back(static_cast<std::uint8_t>(FieldType::kString));
  put_bytes(buf, "x");
  Result<Payload> decoded = Payload::decode(buf);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// Property sweep: random payloads round-trip bit-exactly.
class PayloadRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PayloadRoundTrip, Random) {
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL + 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  Payload p;
  int fields = 1 + static_cast<int>(next() % 12);
  for (int i = 0; i < fields; ++i) {
    switch (next() % 4) {
      case 0:
        p.add_u64(next());
        break;
      case 1:
        p.add_string(std::string(next() % 40, static_cast<char>('a' + next() % 26)));
        break;
      case 2:
        p.add_pid(Pid{static_cast<Addr>(next() % 100),
                      static_cast<Addr>(next() % 100),
                      static_cast<Addr>(next() % 100)});
        break;
      case 3:
        p.add_name("/p" + std::to_string(next() % 1000));
        break;
    }
  }
  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadRoundTrip, ::testing::Range(1, 33));

}  // namespace
}  // namespace namecoh

// Tests for the wire codec: varints, byte strings, pids, typed payloads,
// and the name service's two readings of an update push.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "ns/ns_wire.hpp"
#include "util/rng.hpp"

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
  EXPECT_EQ(p.name_at(3), "/x");
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

TEST(Payload, AddAfterDecodeKeepsTheCountCanonical) {
  // An overlong count (0 as two bytes) decodes; a field added afterwards
  // leaves the frame a builder would have made.
  const std::vector<std::uint8_t> overlong = {0x80, 0x00};
  Result<Payload> decoded = Payload::decode(overlong);
  ASSERT_TRUE(decoded.is_ok());
  decoded.value().add_u64(300);
  Payload built;
  built.add_u64(300);
  EXPECT_EQ(decoded.value().encode(), built.encode());
  EXPECT_EQ(decoded.value().u64_at(0), 300u);
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

// --- Differential check against a field-vector reference codec ---------------
//
// The reference is the codec a Payload used to be: a vector of fields,
// encoded by a serialising pass and decoded by building every field. It
// has its own varint code, so it shares nothing with wire.cpp.

/// One field; only the member its type names is meaningful.
struct RefField {
  FieldType type;
  std::uint64_t u64 = 0;
  std::string text;
  Pid pid;
};

void ref_put(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<std::uint8_t>(v | 0x80));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::vector<std::uint8_t> ref_encode(const std::vector<RefField>& fields) {
  std::vector<std::uint8_t> out;
  ref_put(out, fields.size());
  for (const RefField& f : fields) {
    out.push_back(static_cast<std::uint8_t>(f.type));
    if (f.type == FieldType::kU64) {
      ref_put(out, f.u64);
    } else if (f.type == FieldType::kPid) {
      for (Addr a : {f.pid.naddr, f.pid.maddr, f.pid.laddr}) ref_put(out, a);
    } else {
      ref_put(out, f.text.size());
      out.insert(out.end(), f.text.begin(), f.text.end());
    }
  }
  return out;
}

/// Reads a varint at `at`; nullopt when truncated or over 64 bits.
std::optional<std::uint64_t> ref_get(const std::vector<std::uint8_t>& in,
                                     std::size_t& at) {
  std::uint64_t v = 0;
  for (int shift = 0; at < in.size() && shift < 64; shift += 7) {
    const std::uint8_t byte = in[at++];
    if (shift == 63 && byte > 1) return std::nullopt;
    v |= std::uint64_t{byte & 0x7fu} << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return std::nullopt;
}

std::optional<std::vector<RefField>> ref_decode(
    const std::vector<std::uint8_t>& in) {
  std::size_t at = 0;
  const auto count = ref_get(in, at);
  if (!count) return std::nullopt;
  std::vector<RefField> out;
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (at >= in.size()) return std::nullopt;
    const auto type = static_cast<FieldType>(in[at++]);
    if (type == FieldType::kU64) {
      const auto v = ref_get(in, at);
      if (!v) return std::nullopt;
      out.push_back({type, *v, {}, {}});
    } else if (type == FieldType::kString || type == FieldType::kName) {
      const auto n = ref_get(in, at);
      if (!n || *n > in.size() - at) return std::nullopt;
      const auto* bytes = reinterpret_cast<const char*>(in.data() + at);
      out.push_back({type, 0, std::string(bytes, *n), {}});
      at += static_cast<std::size_t>(*n);
    } else if (type == FieldType::kPid) {
      Addr a[3];
      for (Addr& x : a) {
        const auto v = ref_get(in, at);
        if (!v || *v > ~Addr{0}) return std::nullopt;
        x = static_cast<Addr>(*v);
      }
      out.push_back({type, 0, {}, Pid{a[0], a[1], a[2]}});
    } else {
      return std::nullopt;
    }
  }
  if (at != in.size()) return std::nullopt;
  return out;
}

/// Every field of `p` reads back as `ref` says.
void expect_fields(const Payload& p, const std::vector<RefField>& ref) {
  ASSERT_EQ(p.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(p.type_at(i), ref[i].type) << "field " << i;
    switch (ref[i].type) {
      case FieldType::kU64:
        EXPECT_EQ(p.u64_at(i), ref[i].u64);
        break;
      case FieldType::kString:
        EXPECT_EQ(p.string_at(i), ref[i].text);
        break;
      case FieldType::kName:
        EXPECT_EQ(p.name_at(i), ref[i].text);
        break;
      case FieldType::kPid:
        EXPECT_EQ(p.pid_at(i), ref[i].pid);
        break;
    }
  }
}

/// The two codecs accept or refuse `frame` alike, and agree on its fields.
void expect_same_verdict(const std::vector<std::uint8_t>& frame) {
  const auto ref = ref_decode(frame);
  const Result<Payload> got = Payload::decode(frame);
  ASSERT_EQ(got.is_ok(), ref.has_value());
  if (ref) expect_fields(got.value(), *ref);
}

class WireCodecDifferential : public ::testing::TestWithParam<int> {};

TEST_P(WireCodecDifferential, AgreesWithFieldVectorReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Uniform in [lo, hi].
  auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.next_below(hi - lo + 1));
  };
  // Values at every varint length boundary, and pids whose rebase changes
  // their encoded length (1 to 5 bytes per address).
  const std::uint64_t u64s[] = {0, 1, 127, 128, 16383, 16384,
                                std::uint64_t{1} << 63, ~0ULL};
  const Addr addrs[] = {0, 1, 127, 128, 16384, 1u << 21, 1u << 28, ~Addr{0}};
  const CompoundName slice_name =
      CompoundName::parse_relative("vice/usr/src").value();
  auto text = [&]() -> std::string {
    switch (pick(0, 2)) {
      case 0: return "";
      case 1: return std::string(300, static_cast<char>('a' + pick(0, 25)));
      default: return "p" + std::to_string(rng.next() % 1000);
    }
  };
  auto pid = [&] {
    return Pid{addrs[pick(0, 7)], addrs[pick(0, 7)],
               addrs[pick(0, 7)]};
  };

  for (int round = 0; round < 20; ++round) {
    // Mostly small payloads; some at 126 to 130 fields, around the count
    // that grows a byte.
    const std::size_t n = rng.bernoulli(0.2) ? pick(126, 130) : pick(0, 12);
    Payload p;
    std::vector<RefField> ref;
    for (std::size_t i = 0; i < n; ++i) {
      switch (pick(0, 4)) {
        case 0: {
          const std::uint64_t v =
              rng.bernoulli(0.5) ? u64s[pick(0, 7)] : rng.next();
          p.add_u64(v);
          ref.push_back({FieldType::kU64, v, {}, {}});
          break;
        }
        case 1: {
          const std::string s = text();
          p.add_string(s);
          ref.push_back({FieldType::kString, 0, s, {}});
          break;
        }
        case 2: {
          const std::string s = text();
          p.add_name(s);
          ref.push_back({FieldType::kName, 0, s, {}});
          break;
        }
        case 3: {
          p.add_name(NameSlice{slice_name});
          ref.push_back({FieldType::kName, 0, "vice/usr/src", {}});
          break;
        }
        default: {
          const Pid v = pid();
          p.add_pid(v);
          ref.push_back({FieldType::kPid, 0, {}, v});
          break;
        }
      }
    }
    // Built frames are the reference's bytes, and every field reads back.
    std::vector<std::uint8_t> frame = p.encode();
    ASSERT_EQ(frame, ref_encode(ref)) << "round " << round;
    expect_fields(p, ref);
    expect_same_verdict(frame);

    // Rebase every pid, as the transport does, through a decoded copy:
    // splices where the length changes keep every later field intact.
    Result<Payload> decoded = Payload::decode(p.encode());
    ASSERT_TRUE(decoded.is_ok());
    Payload& moved = decoded.value();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i].type != FieldType::kPid) continue;
      const Pid v = pid();
      moved.set_pid(i, v);
      ref[i].pid = v;
    }
    ASSERT_EQ(moved.encode(), ref_encode(ref)) << "round " << round;
    expect_fields(moved, ref);
    frame = moved.encode();

    // Truncations, byte flips and forged counts: the verdicts agree.
    for (int k = 0; k < 8 && !frame.empty(); ++k) {
      std::vector<std::uint8_t> cut(
          frame.begin(),
          frame.begin() + static_cast<std::ptrdiff_t>(
                              pick(0, frame.size() - 1)));
      expect_same_verdict(cut);
      std::vector<std::uint8_t> flipped = frame;
      flipped[pick(0, frame.size() - 1)] ^=
          static_cast<std::uint8_t>(pick(1, 255));
      expect_same_verdict(flipped);
    }
    for (std::uint64_t forged : {std::uint64_t{n} - 1, std::uint64_t{n} + 1,
                                 std::uint64_t{n} + 1000, ~std::uint64_t{0}}) {
      std::vector<std::uint8_t> bad;
      ref_put(bad, forged);
      std::size_t at = 0;
      (void)ref_get(frame, at);
      bad.insert(bad.end(), frame.begin() + static_cast<std::ptrdiff_t>(at),
                 frame.end());
      expect_same_verdict(bad);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireCodecDifferential, ::testing::Range(1, 17));

// --- kUpdatePush: the epoch-only check against the full decode --------------

/// decode_update_push and validate_update_push accept or refuse `frame`
/// alike and read the same head, which decode_update_head reads too.
/// Returns whether they accepted it; frames the payload codec refuses
/// reach neither and count as refused.
bool expect_same_update_verdict(const std::vector<std::uint8_t>& frame) {
  Result<Payload> payload = Payload::decode(frame);
  if (!payload.is_ok()) return false;
  Message message;
  message.type = NsWire::kUpdatePush;
  message.payload = std::move(payload).value();
  const std::optional<UpdatePush> full = decode_update_push(message);
  const std::optional<UpdateHead> checked = validate_update_push(message);
  EXPECT_EQ(full.has_value(), checked.has_value());
  if (!full || !checked) return false;
  EXPECT_EQ(checked->ctx, full->ctx);
  EXPECT_EQ(checked->epoch, full->epoch);
  const std::optional<UpdateHead> head = decode_update_head(message);
  EXPECT_TRUE(head.has_value());
  if (head) {
    EXPECT_EQ(head->ctx, full->ctx);
    EXPECT_EQ(head->epoch, full->epoch);
  }
  return true;
}

class UpdatePushValidateDifferential : public ::testing::TestWithParam<int> {};

TEST_P(UpdatePushValidateDifferential, RefusesExactlyWhatTheFullDecodeRefuses) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.next_below(hi - lo + 1));
  };
  // Names Name::make takes, then texts it refuses: empty, containing '/'
  // (but not "/" itself, the root name), containing NUL.
  const std::string valid[] = {"a", "/", "entry7", std::string(200, 'n')};
  const std::string invalid[] = {"",   "x/y", "/a", "a/", "//",
                                 std::string("a\0b", 3), std::string(1, '\0')};
  std::size_t accepted = 0;
  std::size_t refused = 0;
  auto tally = [&](const std::vector<RefField>& fields) {
    const bool ok = expect_same_update_verdict(ref_encode(fields));
    ++(ok ? accepted : refused);
  };

  for (int round = 0; round < 40; ++round) {
    const std::size_t n = pick(0, 6);
    std::vector<RefField> fields;
    fields.push_back({FieldType::kU64, rng.next(), {}, {}});      // ctx
    fields.push_back({FieldType::kU64, pick(0, 1000), {}, {}});   // epoch
    fields.push_back({FieldType::kU64, n, {}, {}});               // count
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& text = rng.bernoulli(0.9)
                                    ? valid[pick(0, std::size(valid) - 1)]
                                    : invalid[pick(0, std::size(invalid) - 1)];
      fields.push_back({FieldType::kName, 0, text, {}});
      fields.push_back({FieldType::kU64, rng.next(), {}, {}});
    }
    tally(fields);

    // Truncations and byte flips of the encoded frame.
    const std::vector<std::uint8_t> frame = ref_encode(fields);
    for (int k = 0; k < 8; ++k) {
      std::vector<std::uint8_t> cut(
          frame.begin(),
          frame.begin() + static_cast<std::ptrdiff_t>(
                              pick(0, frame.size() - 1)));
      ++(expect_same_update_verdict(cut) ? accepted : refused);
      std::vector<std::uint8_t> flipped = frame;
      flipped[pick(0, frame.size() - 1)] ^=
          static_cast<std::uint8_t>(pick(1, 255));
      ++(expect_same_update_verdict(flipped) ? accepted : refused);
    }
    // Forged binding counts.
    for (std::uint64_t forged : {std::uint64_t{n} - 1, std::uint64_t{n} + 1,
                                 std::uint64_t{n} + 1000, ~std::uint64_t{0}}) {
      std::vector<RefField> bad = fields;
      bad[2].u64 = forged;
      tally(bad);
    }
    // A field of the wrong type at each position.
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::vector<RefField> bad = fields;
      bad[i] = bad[i].type == FieldType::kU64
                   ? RefField{FieldType::kName, 0, "t", {}}
                   : RefField{FieldType::kU64, 1, {}, {}};
      tally(bad);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);

  // Another message type is no update push to either.
  Message other = encode_update_push(EntityId(1), 1, {});
  other.type = NsWire::kInvalidate;
  EXPECT_FALSE(decode_update_push(other).has_value());
  EXPECT_FALSE(validate_update_push(other).has_value());
  EXPECT_FALSE(decode_update_head(other).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdatePushValidateDifferential,
                         ::testing::Range(1, 17));

}  // namespace
}  // namespace namecoh

// Name-service wire codec tests (src/ns/ns_wire.*): every message kind
// round-trips through its encoder and decoder, and the strict decoders
// refuse any payload that does not match its layout exactly.
#include <gtest/gtest.h>

#include "ns/ns_wire.hpp"

namespace namecoh {
namespace {

ResolveReply referral() {
  ResolveReply reply;
  reply.corr = 42;
  reply.disposition = NsWire::kReferral;
  reply.entity = EntityId(100);
  reply.remaining = "c0/f";
  reply.authority = EntityId(100);
  reply.epoch = 3;
  reply.replicas = {WireServer{Pid{1, 2, 3}, MachineId(7)},
                    WireServer{Pid{1, 2, 4}, MachineId(8)}};
  reply.shard = 5;
  return reply;
}

/// Append fields [from, to) of `src` to `out`.
void copy_fields(const Payload& src, std::size_t from, std::size_t to,
                 Payload& out) {
  for (std::size_t i = from; i < to; ++i) {
    switch (src.type_at(i)) {
      case FieldType::kU64:
        out.add_u64(src.u64_at(i));
        break;
      case FieldType::kString:
        out.add_string(src.string_at(i));
        break;
      case FieldType::kPid:
        out.add_pid(src.pid_at(i));
        break;
      case FieldType::kName:
        out.add_name(src.name_at(i));
        break;
    }
  }
}

/// `message` with its payload cut to the first `fields` fields.
Message truncated(const Message& message, std::size_t fields) {
  Message out;
  out.type = message.type;
  copy_fields(message.payload, 0, fields, out.payload);
  return out;
}

// --- Round trips -------------------------------------------------------------

TEST(NsWireTest, RequestRoundTrips) {
  const Message message = encode_resolve_request(ResolveRequest{
      9, EntityId(5), "a/b/c", NsWire::kFlagLeaseRequested});
  EXPECT_EQ(message.type, NsWire::kResolveRequest);
  EXPECT_EQ(message.trace_corr, 9u);
  EXPECT_EQ(message.payload.size(), 4u);
  auto request = decode_resolve_request(message);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->corr, 9u);
  EXPECT_EQ(request->start, EntityId(5));
  EXPECT_EQ(request->path, "a/b/c");
  EXPECT_EQ(request->flags, NsWire::kFlagLeaseRequested);
}

TEST(NsWireTest, AnswerRoundTripsWithItsLease) {
  ResolveReply answer;
  answer.corr = 7;
  answer.disposition = NsWire::kAnswer;
  answer.entity = EntityId(11);
  answer.authority = EntityId(10);
  answer.epoch = 4;
  answer.replicas = {WireServer{Pid{1, 2, 3}, MachineId(0)}};
  answer.lease_duration = 5000;
  answer.lease_id = 12;
  const Message message = encode_resolve_reply(answer);
  EXPECT_EQ(message.trace_corr, 7u);
  // Twelve fields through the lease pair, then the shard count 0.
  ASSERT_EQ(message.payload.size(), 13u);
  EXPECT_EQ(message.payload.u64_at(12), 0u);
  auto reply = decode_resolve_reply(message);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->corr, 7u);
  EXPECT_EQ(reply->disposition, NsWire::kAnswer);
  EXPECT_EQ(reply->entity, EntityId(11));
  EXPECT_EQ(reply->remaining, "");
  EXPECT_EQ(reply->authority, EntityId(10));
  EXPECT_EQ(reply->epoch, 4u);
  ASSERT_EQ(reply->replicas.size(), 1u);
  EXPECT_EQ(reply->replicas[0].pid, (Pid{1, 2, 3}));
  EXPECT_EQ(reply->replicas[0].machine, MachineId(0));
  EXPECT_EQ(reply->lease_duration, 5000u);
  EXPECT_EQ(reply->lease_id, 12u);
  EXPECT_EQ(reply->shard, NsWire::kNoShard);
}

TEST(NsWireTest, ReferralWithShardRoundTrips) {
  const Message message = encode_resolve_reply(referral());
  // Fourteen fields through the lease pair, the shard count 1, the shard.
  ASSERT_EQ(message.payload.size(), 16u);
  EXPECT_EQ(message.payload.u64_at(14), 1u);
  auto reply = decode_resolve_reply(message);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->disposition, NsWire::kReferral);
  EXPECT_EQ(reply->remaining, "c0/f");
  ASSERT_EQ(reply->replicas.size(), 2u);
  EXPECT_EQ(reply->replicas[1].machine, MachineId(8));
  EXPECT_EQ(reply->lease_id, 0u);  // the empty lease pair
  EXPECT_EQ(reply->shard, 5u);
}

TEST(NsWireTest, ErrorWithoutAuthorityRoundTrips) {
  ResolveReply error;
  error.corr = 3;
  error.error = "NOT_FOUND: no binding for 'x'";
  auto reply = decode_resolve_reply(encode_resolve_reply(error));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->disposition, NsWire::kError);
  EXPECT_FALSE(reply->entity.valid());
  EXPECT_FALSE(reply->authority.valid());
  EXPECT_EQ(reply->error, "NOT_FOUND: no binding for 'x'");
  EXPECT_TRUE(reply->replicas.empty());
  EXPECT_EQ(reply->shard, NsWire::kNoShard);
}

TEST(NsWireTest, UpdatePushRoundTrips) {
  const std::vector<Binding> bindings = {Binding{Name("a"), EntityId(1)},
                                         Binding{Name("b"), EntityId(2)}};
  const Message message = encode_update_push(EntityId(9), 6, bindings);
  EXPECT_EQ(message.type, NsWire::kUpdatePush);
  auto push = decode_update_push(message);
  ASSERT_TRUE(push.has_value());
  EXPECT_EQ(push->ctx, EntityId(9));
  EXPECT_EQ(push->epoch, 6u);
  EXPECT_EQ(push->bindings, bindings);
}

TEST(NsWireTest, InvalidateRoundTrips) {
  const Message message =
      encode_invalidate(Invalidate{12, EntityId(10), 5, 300});
  EXPECT_EQ(message.type, NsWire::kInvalidate);
  auto invalidate = decode_invalidate(message);
  ASSERT_TRUE(invalidate.has_value());
  EXPECT_EQ(invalidate->lease_id, 12u);
  EXPECT_EQ(invalidate->ctx, EntityId(10));
  EXPECT_EQ(invalidate->epoch, 5u);
  EXPECT_EQ(invalidate->rebound_at, 300u);
}

TEST(NsWireTest, DecodersRefuseAnotherMessageType) {
  const Message request =
      encode_resolve_request(ResolveRequest{1, EntityId(2), "a", 0});
  EXPECT_FALSE(decode_resolve_reply(request).has_value());
  EXPECT_FALSE(decode_update_push(request).has_value());
  EXPECT_FALSE(decode_invalidate(request).has_value());
}

// --- Strict decoding -------------------------------------------------------

TEST(NsWireTest, TruncatedShardIsRejected) {
  const Message whole = encode_resolve_reply(referral());
  // Drop the shard id: the count still claims one.
  EXPECT_FALSE(
      decode_resolve_reply(truncated(whole, whole.payload.size() - 1))
          .has_value());
}

TEST(NsWireTest, ReferralWithoutShardIsRejected) {
  ResolveReply unsharded = referral();
  unsharded.shard = NsWire::kNoShard;  // encodes as s = 0
  EXPECT_FALSE(
      decode_resolve_reply(encode_resolve_reply(unsharded)).has_value());
}

TEST(NsWireTest, AnswerWithShardIsRejected) {
  ResolveReply answer;
  answer.corr = 7;
  answer.disposition = NsWire::kAnswer;
  answer.entity = EntityId(11);
  answer.shard = 3;  // encodes as s = 1, shard 3
  EXPECT_FALSE(decode_resolve_reply(encode_resolve_reply(answer)).has_value());
}

TEST(NsWireTest, NoShardIdIsRejected) {
  const Message whole = encode_resolve_reply(referral());
  Message reply = truncated(whole, whole.payload.size() - 1);
  reply.payload.add_u64(NsWire::kNoShard);
  EXPECT_FALSE(decode_resolve_reply(reply).has_value());
}

TEST(NsWireTest, ReferralWithoutContextIsRejected) {
  ResolveReply anonymous = referral();
  anonymous.entity = EntityId::invalid();
  EXPECT_FALSE(
      decode_resolve_reply(encode_resolve_reply(anonymous)).has_value());
}

TEST(NsWireTest, OneTrailingFieldIsRejected) {
  Message reply = encode_resolve_reply(referral());
  reply.payload.add_u64(0);
  EXPECT_FALSE(decode_resolve_reply(reply).has_value());
  Message request =
      encode_resolve_request(ResolveRequest{1, EntityId(2), "a", 0});
  request.payload.add_u64(0);
  EXPECT_FALSE(decode_resolve_request(request).has_value());
  Message invalidate = encode_invalidate(Invalidate{1, EntityId(2), 3, 4});
  invalidate.payload.add_u64(0);
  EXPECT_FALSE(decode_invalidate(invalidate).has_value());
  const std::vector<Binding> one = {Binding{Name("a"), EntityId(1)}};
  Message push = encode_update_push(EntityId(9), 6, one);
  push.payload.add_u64(0);
  EXPECT_FALSE(decode_update_push(push).has_value());
}

TEST(NsWireTest, WrongFieldTypeIsRejected) {
  // The request's path sent as an opaque string instead of a name.
  Message request;
  request.type = NsWire::kResolveRequest;
  request.payload.add_u64(1).add_u64(2).add_string("a").add_u64(0);
  EXPECT_FALSE(decode_resolve_request(request).has_value());
  // A reply whose first replica machine is a pid.
  const Message whole = encode_resolve_reply(referral());
  Message reply = truncated(whole, 9);  // through the first replica pid
  reply.payload.add_pid(Pid{1, 2, 3});
  copy_fields(whole.payload, 10, whole.payload.size(), reply.payload);
  ASSERT_EQ(reply.payload.size(), whole.payload.size());
  EXPECT_FALSE(decode_resolve_reply(reply).has_value());
}

TEST(NsWireTest, ReferralWithoutReplicasIsRejected) {
  ResolveReply bare = referral();
  bare.replicas.clear();
  EXPECT_FALSE(decode_resolve_reply(encode_resolve_reply(bare)).has_value());
}

TEST(NsWireTest, ThreeFieldRequestIsRejected) {
  const Message whole =
      encode_resolve_request(ResolveRequest{1, EntityId(2), "a", 0});
  EXPECT_FALSE(decode_resolve_request(truncated(whole, 3)).has_value());
}

TEST(NsWireTest, TailLessReplyIsRejected) {
  // Eight fields ending at the epoch, with a pid before the authority:
  // no replica list, lease pair or shard count.
  Message reply;
  reply.type = NsWire::kResolveReply;
  reply.payload.add_u64(1)
      .add_u64(NsWire::kAnswer)
      .add_u64(5)
      .add_name("")
      .add_string("")
      .add_pid(Pid::self())
      .add_u64(NsWire::kNoEntity)
      .add_u64(0);
  EXPECT_FALSE(decode_resolve_reply(reply).has_value());
}

}  // namespace
}  // namespace namecoh

#include "ns/ns_wire.hpp"

#include <string_view>

namespace namecoh {
namespace {

// EntityId::invalid() and MachineId::invalid() are all-ones, the same
// bits as NsWire::kNoEntity: ids cross the wire as their raw values.
static_assert(EntityId::invalid().value() == NsWire::kNoEntity);

/// Reads a payload front to back; every read checks the field's type, and
/// `done()` checks that nothing is left over.
class Cursor {
 public:
  explicit Cursor(const Payload& payload) : payload_(payload) {}

  bool u64(std::uint64_t* out) {
    if (!next_is(FieldType::kU64)) return false;
    *out = payload_.u64_at(at_++);
    return true;
  }
  bool entity(EntityId* out) {
    std::uint64_t raw = 0;
    if (!u64(&raw)) return false;
    *out = EntityId(raw);
    return true;
  }
  bool name(std::string* out) {
    if (!next_is(FieldType::kName)) return false;
    *out = payload_.name_at(at_++);
    return true;
  }
  /// A view into the payload's own field: valid while the payload lives.
  bool name(std::string_view* out) {
    if (!next_is(FieldType::kName)) return false;
    *out = payload_.name_at(at_++);
    return true;
  }
  bool string(std::string* out) {
    if (!next_is(FieldType::kString)) return false;
    *out = payload_.string_at(at_++);
    return true;
  }
  /// `[count, (pid, machine)×count]`; every machine must be a valid id.
  bool servers(std::vector<WireServer>* out) {
    std::uint64_t count = 0;
    if (!u64(&count) || count > left() / 2) return false;
    out->reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!next_is(FieldType::kPid)) return false;
      const Pid pid = payload_.pid_at(at_++);
      std::uint64_t machine = 0;
      if (!u64(&machine) || !MachineId(machine).valid()) return false;
      out->push_back(WireServer{pid, MachineId(machine)});
    }
    return true;
  }
  [[nodiscard]] std::size_t left() const { return payload_.size() - at_; }
  [[nodiscard]] bool done() const { return at_ == payload_.size(); }

 private:
  bool next_is(FieldType type) const {
    return at_ < payload_.size() && payload_.type_at(at_) == type;
  }

  const Payload& payload_;
  std::size_t at_ = 0;
};

void add_servers(Payload& payload, const std::vector<WireServer>& servers) {
  payload.add_u64(servers.size());
  for (const WireServer& server : servers) {
    payload.add_pid(server.pid);
    payload.add_u64(server.machine.value());
  }
}

}  // namespace

Message encode_resolve_request(const ResolveRequest& request) {
  Message message;
  message.type = NsWire::kResolveRequest;
  message.trace_corr = request.corr;
  message.payload.add_u64(request.corr);
  message.payload.add_u64(request.start.value());
  message.payload.add_name(request.path);
  message.payload.add_u64(request.flags);
  return message;
}

std::optional<ResolveRequest> decode_resolve_request(const Message& message) {
  if (message.type != NsWire::kResolveRequest) return std::nullopt;
  Cursor in(message.payload);
  ResolveRequest request;
  if (!in.u64(&request.corr) || !in.entity(&request.start) ||
      !in.name(&request.path) || !in.u64(&request.flags) || !in.done()) {
    return std::nullopt;
  }
  return request;
}

Message encode_resolve_reply(const ResolveReply& reply) {
  Message message;
  message.type = NsWire::kResolveReply;
  message.trace_corr = reply.corr;
  Payload& out = message.payload;
  out.add_u64(reply.corr);
  out.add_u64(reply.disposition);
  out.add_u64(reply.entity.value());
  out.add_name(reply.remaining);
  out.add_string(reply.error);
  out.add_u64(reply.authority.value());
  out.add_u64(reply.epoch);
  add_servers(out, reply.replicas);
  out.add_u64(reply.lease_duration);
  out.add_u64(reply.lease_id);
  // A bare kNoShard would cost a 10-byte varint on every answer; the
  // count keeps answers at one byte.
  if (reply.shard == NsWire::kNoShard) {
    out.add_u64(0);
  } else {
    out.add_u64(1);
    out.add_u64(reply.shard);
  }
  return message;
}

std::optional<ResolveReply> decode_resolve_reply(const Message& message) {
  if (message.type != NsWire::kResolveReply) return std::nullopt;
  Cursor in(message.payload);
  ResolveReply reply;
  if (!in.u64(&reply.corr) || !in.u64(&reply.disposition) ||
      !in.entity(&reply.entity) || !in.name(&reply.remaining) ||
      !in.string(&reply.error) || !in.entity(&reply.authority) ||
      !in.u64(&reply.epoch) || !in.servers(&reply.replicas) ||
      !in.u64(&reply.lease_duration) || !in.u64(&reply.lease_id)) {
    return std::nullopt;
  }
  // A referral names the context it refers to, its first replica is
  // where the client goes next, and it — and only it — carries the shard
  // owning that context.
  const bool referral = reply.disposition == NsWire::kReferral;
  if (referral && (!reply.entity.valid() || reply.replicas.empty())) {
    return std::nullopt;
  }
  std::uint64_t s = 0;
  if (!in.u64(&s) || s != (referral ? 1 : 0)) return std::nullopt;
  if (referral &&
      (!in.u64(&reply.shard) || reply.shard == NsWire::kNoShard)) {
    return std::nullopt;
  }
  if (!in.done()) return std::nullopt;
  return reply;
}

Message encode_update_push(EntityId ctx, std::uint64_t epoch,
                           std::span<const Binding> bindings) {
  Message message;
  message.type = NsWire::kUpdatePush;
  message.payload.reserve(3 + 2 * bindings.size());
  message.payload.add_u64(ctx.value());
  message.payload.add_u64(epoch);
  message.payload.add_u64(bindings.size());
  for (const Binding& b : bindings) {
    message.payload.add_name(b.name.text());
    message.payload.add_u64(b.entity.value());
  }
  return message;
}

std::optional<UpdatePush> decode_update_push(const Message& message) {
  if (message.type != NsWire::kUpdatePush) return std::nullopt;
  Cursor in(message.payload);
  UpdatePush push;
  std::uint64_t n = 0;
  if (!in.entity(&push.ctx) || !in.u64(&push.epoch) || !in.u64(&n) ||
      in.left() % 2 != 0 || n != in.left() / 2) {
    return std::nullopt;
  }
  push.bindings.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string_view text;
    EntityId target;
    if (!in.name(&text) || !in.entity(&target)) return std::nullopt;
    auto name = Name::make(text);
    if (!name.is_ok()) return std::nullopt;
    push.bindings.push_back(Binding{name.value(), target});
  }
  return push;
}

Message encode_invalidate(const Invalidate& invalidate) {
  Message message;
  message.type = NsWire::kInvalidate;
  message.payload.add_u64(invalidate.lease_id);
  message.payload.add_u64(invalidate.ctx.value());
  message.payload.add_u64(invalidate.epoch);
  message.payload.add_u64(invalidate.rebound_at);
  return message;
}

std::optional<Invalidate> decode_invalidate(const Message& message) {
  if (message.type != NsWire::kInvalidate) return std::nullopt;
  Cursor in(message.payload);
  Invalidate invalidate;
  if (!in.u64(&invalidate.lease_id) || !in.entity(&invalidate.ctx) ||
      !in.u64(&invalidate.epoch) || !in.u64(&invalidate.rebound_at) ||
      !in.done()) {
    return std::nullopt;
  }
  return invalidate;
}

}  // namespace namecoh

// The name service's wire layouts, encoded and decoded in one place.
//
// Four message kinds cross the transport (Message::type 100–103): resolve
// requests, resolve replies, primary → secondary update pushes and
// server → client lease invalidations. Each has exactly one layout, every
// section always present (possibly empty); docs/PROTOCOLS.md draws them.
// NameService and ResolverClient build and read messages only through the
// functions below, so no other file knows a field index.
//
// Decoding is strict and all-or-nothing: a payload whose field count or
// field types do not match its layout exactly — or a referral that names
// no context, no replica or no shard — decodes to nullopt, and the
// receiver drops it before any correlation routing. Pids in requests and
// replies are written in the sender's context; the transport rebases them
// into the receiver's (R(sender), §6) in flight, so decoded pids are
// already the receiver's.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "net/transport.hpp"

namespace namecoh {

/// Message types, dispositions, flags and sentinels (Message::type and
/// u64 field conventions).
struct NsWire {
  static constexpr std::uint32_t kResolveRequest = 100;
  static constexpr std::uint32_t kResolveReply = 101;
  /// Primary → secondary update propagation (epoch-stamped full snapshot
  /// of one context's bindings; idempotent, applied only if newer).
  static constexpr std::uint32_t kUpdatePush = 102;
  /// Server → client callback push (docs/COHERENCE.md): a lease the
  /// server granted is void because the authority rebound.
  static constexpr std::uint32_t kInvalidate = 103;
  // Reply dispositions.
  static constexpr std::uint64_t kAnswer = 0;
  static constexpr std::uint64_t kReferral = 1;
  static constexpr std::uint64_t kError = 2;
  /// Request flag: grant a lease on the answer. Granting fills the
  /// server's lease table and owes kInvalidate pushes, so it stays a
  /// per-request choice.
  static constexpr std::uint64_t kFlagLeaseRequested = 1;
  /// Sentinel for "no entity" in u64 entity fields on the wire.
  static constexpr std::uint64_t kNoEntity = ~0ULL;
  /// Sentinel for "shard unknown" in u64 shard fields.
  static constexpr std::uint64_t kNoShard = ~0ULL;
};

/// `[u64 corr, u64 start, name path, u64 flags]`.
struct ResolveRequest {
  std::uint64_t corr = 0;
  EntityId start;
  /// The '/'-joined path to resolve from `start`; empty = zero components.
  std::string path;
  std::uint64_t flags = 0;
};

/// One server a reply names: its pid and the machine it serves for.
struct WireServer {
  Pid pid;
  MachineId machine;
};

/// `[corr, disposition, entity, remaining, error, authority, epoch,
///   n, (pid, machine)×n, lease_duration, lease_id, s, shard×s]`.
struct ResolveReply {
  std::uint64_t corr = 0;
  std::uint64_t disposition = NsWire::kError;
  /// The answer, or the referred context; invalid when none.
  EntityId entity;
  /// Referrals: the unresolved path suffix.
  std::string remaining;
  /// Errors: the server's message.
  std::string error;
  /// Context the reply depends on, and its rebind epoch at the server
  /// (a secondary stamps its snapshot's epoch); invalid / 0 when none.
  EntityId authority;
  std::uint64_t epoch = 0;
  /// The authority's live replica servers, primary first. A referral
  /// always names at least one: its first entry is the referral target.
  std::vector<WireServer> replicas;
  /// Lease granted on the answer; 0 / 0 when none was.
  std::uint64_t lease_duration = 0;
  std::uint64_t lease_id = 0;
  /// Referrals: the shard owning `entity` — the glue that lets a client
  /// learn the shard's route (`replicas`) in the same round trip
  /// (docs/SHARDING.md). kNoShard on answers and errors; on the wire `s`
  /// is 1 on a referral and 0 otherwise.
  std::uint64_t shard = NsWire::kNoShard;
};

/// `[u64 ctx, u64 epoch, u64 n, (name, u64 target)×n]`: a full snapshot
/// of one context's bindings.
struct UpdatePush {
  EntityId ctx;
  std::uint64_t epoch = 0;
  std::vector<Binding> bindings;
};

/// An update push's head: the context and epoch a snapshot is of.
struct UpdateHead {
  EntityId ctx;
  std::uint64_t epoch = 0;
};

/// `[u64 lease_id, u64 ctx, u64 epoch, u64 rebound_at]`: the lease is
/// void because `ctx` rebound (to `epoch`) at `rebound_at`.
struct Invalidate {
  std::uint64_t lease_id = 0;
  EntityId ctx;
  std::uint64_t epoch = 0;
  SimTime rebound_at = 0;
};

[[nodiscard]] Message encode_resolve_request(const ResolveRequest& request);
[[nodiscard]] std::optional<ResolveRequest> decode_resolve_request(
    const Message& message);

[[nodiscard]] Message encode_resolve_reply(const ResolveReply& reply);
[[nodiscard]] std::optional<ResolveReply> decode_resolve_reply(
    const Message& message);

[[nodiscard]] Message encode_update_push(EntityId ctx, std::uint64_t epoch,
                                         std::span<const Binding> bindings);
[[nodiscard]] std::optional<UpdatePush> decode_update_push(
    const Message& message);
/// The head alone, with the binding count checked against the fields
/// left; the bindings themselves are not read.
[[nodiscard]] std::optional<UpdateHead> decode_update_head(
    const Message& message);
/// Checks the whole push as decode_update_push does, field types, count
/// and every name's validity, but builds nothing and interns no name: it
/// refuses exactly the frames decode_update_push refuses.
[[nodiscard]] std::optional<UpdateHead> validate_update_push(
    const Message& message);

[[nodiscard]] Message encode_invalidate(const Invalidate& invalidate);
[[nodiscard]] std::optional<Invalidate> decode_invalidate(
    const Message& message);

}  // namespace namecoh

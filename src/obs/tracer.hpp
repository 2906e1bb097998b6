// Structured tracing (observability subsystem): typed events in a bounded
// ring buffer, grouped into per-resolution *spans*.
//
// The paper's coherence claims (§4–§6) are statements about which context a
// name was resolved in and what it denoted there; reproducing a verdict
// therefore needs the causal chain of one lookup — not just outcome
// counters. The old `Trace` was an unbounded append-only string log: every
// record formatted text (allocation on the hot path) and nothing tied a
// delivery to the request that caused it. This replaces it with:
//
//   * TraceEvent — enum kind + four integer payload slots. Recording is a
//     branch, a map probe, and a struct store: no formatting, and no
//     allocation after the ring is sized.
//   * a bounded ring — when full, the oldest event is overwritten and a
//     drop counter advances, so long traced runs cost O(capacity) memory
//     and the loss is observable instead of silent.
//   * spans — one per top-level resolution. The span remembers every wire
//     correlation id the resolution used (one per attempt, per hop), and
//     events recorded under any of those ids attach to it — including
//     server-side handling on another machine, because request and reply
//     carry the same id. `events_for_span` then replays the full causal
//     chain of one lookup: cache miss, send, drop, backoff retry, re-send,
//     deliver, server handle, reply.
//
// Disabled (the default), every entry point is a single branch; the ring is
// not even allocated. See docs/OBSERVABILITY.md for the taxonomy and
// trace_export.hpp for the Perfetto-loadable chrome-trace exporter.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"

namespace namecoh {

/// Event taxonomy. Grouped by the layer that records them; the payload
/// slots `a`/`b` carry small integers whose meaning is per-kind (endpoint
/// ids, entity ids, attempt numbers — see docs/OBSERVABILITY.md).
enum class EventKind : std::uint8_t {
  // Span lifecycle (recorded by the tracer itself).
  kSpanBegin = 0,   ///< a = start entity
  kSpanEnd,         ///< a = 1 if the resolution succeeded
  // Resolver client.
  kCacheHit,        ///< a = cached entity
  kCacheMiss,
  kNegativeHit,     ///< cached error served
  kStaleEpochDrop,  ///< a = authority, b = superseded epoch
  kReferralFollowed,///< a = next start context, b = hop number
  kTimeout,         ///< a = attempt number, b = timeout that expired
  kBackoffRetry,    ///< a = attempt number
  kStaleReplyDropped,
  kCoalesced,       ///< waiter attached to an identical in-flight lookup;
                    ///< a = start entity, b = owning request id
  // Transport.
  kSend,            ///< a = sender endpoint, b = frame bytes
  kDrop,            ///< a = sender endpoint
  kDeliver,         ///< a = receiver endpoint
  kMisdeliver,      ///< a = actual receiver endpoint
  kUnreachable,     ///< a = sender endpoint
  // Name-service server.
  kServerHandle,    ///< a = server endpoint, b = start entity
  kServerAnswer,    ///< a = answered entity
  kServerReferral,  ///< a = referred-to context
  kServerError,
  kServerDuplicate, ///< retransmission re-answered
  // Replication (docs/REPLICATION.md).
  kUpdatePush,      ///< a = replicated context, b = epoch pushed
  kUpdateApply,     ///< a = replicated context, b = epoch applied
  kUpdateStale,     ///< a = replicated context, b = ignored older epoch
  kStoreAnswer,     ///< secondary answered from its replica store;
                    ///< a = context, b = applied epoch served
  kFailover,        ///< client moved to the next replica; a = machine
                    ///< given up on, b = machine tried next
  // Lease coherence (docs/COHERENCE.md).
  kLeaseGrant,      ///< server granted/renewed a lease; a = context,
                    ///< b = lease id (corr-bound: lands in the client span)
  kInvalidate,      ///< callback push: server side a = context, b = epoch
                    ///< pushed; client side a = context, b = epoch received
  kLeaseDegrade,    ///< lease lapsed or renewal failed — entry rides out
                    ///< its plain TTL; a = start entity, b = authority ctx
  // Fault injection (sim/faults.hpp via Transport::attach_faults).
  kFaultCrash,      ///< a = crashed machine
  kFaultRestart,    ///< a = restarted machine
  kFaultPartition,  ///< one-way block installed; a = from, b = to machine
  kFaultHeal,       ///< one-way block removed; a = from, b = to machine
  kFaultDropCrash,  ///< message dropped: a = crashed machine involved
  kFaultDropPartition, ///< message dropped: a = from, b = to machine
  kFaultDelay,      ///< reorder window delayed a message; b = extra ticks
  // Sharded delegation (docs/SHARDING.md).
  kDelegationChase, ///< routing client learned a referral's shard; a =
                    ///< delegated context, b = owning shard
  kCrossShardHop,   ///< chase moved between shards; a = from, b = to
  // Online rebalancing (docs/REBALANCING.md).
  kMigrationPhase,  ///< driver phase transition; a = subtree root,
                    ///< b = MigrationPhase entered
  kForwarded,       ///< old owner hit in the forwarding window; a = context,
                    ///< b = shard that owns it now
  // Dynamic membership (docs/MEMBERSHIP.md).
  kMemberJoin,      ///< machine announced / rejoined; a = machine,
                    ///< b = incarnation
  kMemberLeave,     ///< graceful leave completed (authority handed off);
                    ///< a = machine, b = subtrees handed off
  kMemberCrash,     ///< crash-leave; a = machine, b = subtrees re-delegated
  kMemberRename,    ///< machine renumbered; a = machine, b = incarnation
  kRouteHealed,     ///< client re-derived a stale (pid, machine) route;
                    ///< a = machine, b = its current incarnation
  // Local (in-memory) resolution.
  kResolveStep,     ///< a = context, b = component index
  kKindCount        ///< sentinel, keep last
};

[[nodiscard]] std::string_view event_kind_name(EventKind kind);

struct TraceEvent {
  SimTime at = 0;
  EventKind kind = EventKind::kSpanBegin;
  std::uint64_t span = 0;  ///< owning span id; 0 = not part of any span
  std::uint64_t corr = 0;  ///< wire correlation id; 0 = none
  std::uint64_t a = 0;     ///< payload, meaning per kind
  std::uint64_t b = 0;
};

/// One top-level resolution, open → (events) → closed. `path` is rendered
/// once at open — span opens are per-resolution, not per-event, and only
/// happen when tracing is enabled.
struct SpanRecord {
  std::uint64_t id = 0;
  SimTime begin = 0;
  SimTime end = 0;
  bool open = true;
  bool ok = false;
  std::uint64_t start_entity = 0;
  std::string path;
  std::vector<std::uint64_t> corrs;  ///< correlation ids used, in order
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kMaxSpans = 1024;

  /// Enabling allocates the ring at the configured capacity; disabling
  /// keeps recorded data readable. Everything recorded while disabled is
  /// a no-op costing one branch.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Resizing clears the buffer (events only; spans survive).
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // --- recording (hot path) -------------------------------------------------
  /// Record an event keyed by wire correlation id; it attaches to the span
  /// that bound `corr`, if any.
  void record(SimTime at, EventKind kind, std::uint64_t corr = 0,
              std::uint64_t a = 0, std::uint64_t b = 0);
  /// Record an event directly into a span (client-side steps that happen
  /// before any correlation id exists, e.g. cache hits).
  void record_in_span(std::uint64_t span, SimTime at, EventKind kind,
                      std::uint64_t a = 0, std::uint64_t b = 0);

  // --- spans ----------------------------------------------------------------
  /// Returns 0 when disabled; every other span id is unique and non-zero.
  std::uint64_t open_span(SimTime at, std::uint64_t start_entity,
                          std::string path);
  /// Associate a correlation id with the span: subsequent record(corr=…)
  /// calls attach to it, from either side of the wire.
  void bind_corr(std::uint64_t span, std::uint64_t corr);
  void close_span(std::uint64_t span, SimTime at, bool ok);

  /// Fold another tracer's spans and buffered events into this one —
  /// the per-worker merge of docs/PARALLELISM.md. Each pool worker records
  /// into a private Tracer (the class has no shared state, so per-thread
  /// instances are race-free by construction) and the driving thread
  /// absorbs them at the batch barrier, in worker-index order, which makes
  /// the merged history deterministic for a given worker count. Absorbed
  /// spans are assigned fresh ids here (worker-local ids would collide);
  /// their events are re-attached under the new ids. Live correlation-id
  /// routing is NOT imported — absorbed spans are expected to be closed,
  /// pure-compute spans (wire exchanges belong to the simulator thread).
  /// No-op when either tracer is disabled; `other` is left cleared.
  void absorb(Tracer& other);

  // --- queries (test / export side) ----------------------------------------
  /// Buffered events, oldest first (at most `capacity()` of them).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t count(EventKind kind) const;
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Spans evicted because more than kMaxSpans were opened.
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }

  [[nodiscard]] const std::deque<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] const SpanRecord* span(std::uint64_t id) const;
  /// All buffered events attached to the span, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events_for_span(
      std::uint64_t id) const;

  void clear();

 private:
  void push(const TraceEvent& event);
  SpanRecord* find_span(std::uint64_t id);

  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<TraceEvent> ring_;
  std::size_t start_ = 0;  ///< index of oldest event
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;

  std::uint64_t next_span_ = 1;
  std::deque<SpanRecord> spans_;  ///< bounded FIFO, oldest evicted
  std::uint64_t spans_dropped_ = 0;
  /// Live correlation-id → span index routing; entries die with their span
  /// so a late straggler from a closed span reads as span 0, not garbage.
  std::unordered_map<std::uint64_t, std::uint64_t> corr_to_span_;
};

}  // namespace namecoh

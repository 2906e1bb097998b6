// A distributed name service: resolution of compound names across machines
// over the real message transport.
//
// The paper's model is deliberately location-free — a context is just a
// function — but in the distributed systems it analyses (Locus, Andrew,
// Newcastle, DCE) the context objects *live somewhere*, and resolving a
// compound name whose path crosses machines costs messages. This module
// supplies that substrate:
//
//   * AuthorityMap   — which shard (ordered replica set of machines) owns
//                      each context object (src/ns/authority_map.hpp);
//   * NameService    — one server endpoint per machine; servers walk the
//                      compound name through the contexts their machine
//                      serves and
//                      answer with either a result or a *referral* (next
//                      authoritative machine + remaining path), the
//                      iterative style of DNS;
//   * ResolverClient — issues requests, follows referrals, retries lost
//                      messages with a timed exponential backoff, and keeps
//                      a bounded-LRU TTL cache of (context, path) → entity
//                      with optional negative entries and epoch-based
//                      invalidation.
//
// Resolution is an *event-driven engine* (docs/ASYNC.md): resolve_async
// enqueues a per-request state machine whose sends, timeouts, backoff
// resends, failovers and referral chases are all simulator-scheduled
// continuations, so any number of resolutions progress concurrently on the
// one client endpoint. Identical in-flight lookups coalesce onto a single
// wire exchange. The blocking resolve() is a thin wrapper that drives the
// simulator until its own handle completes.
//
// The cache is where naming meets time: a cached binding that outlives a
// rebind makes the client resolve a name to an entity the authority no
// longer means — *temporal* incoherence, measured by bench_ns_cache. Every
// answer is therefore stamped with the authoritative context's *rebind
// epoch*; once a client learns (from any later reply) that the epoch moved
// on, it drops the superseded entries, shrinking the incoherence window
// from "TTL" to "time until the next contact with the authority".
#pragma once

#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/naming_graph.hpp"
#include "core/resolve.hpp"
#include "net/transport.hpp"
#include "ns/authority_map.hpp"
#include "ns/ns_wire.hpp"
#include "obs/snapshot.hpp"
#include "util/hash.hpp"

namespace namecoh {

class MembershipDirectory;  // src/ns/membership.hpp

/// Match `remaining` — the bare '/'-joined remaining-path text of a
/// referral reply — against a suffix of `sent`, the component slice this
/// client asked the server to resolve. Returns the matching suffix slice of
/// `sent` (empty text matches the empty suffix), or nullopt when the text
/// is not a component-wise suffix — a malformed or confused referral that
/// must not be forwarded. Compares piece-by-piece against interned texts;
/// allocation-free. Exposed for tests; the resolver's referral loop uses it
/// to forward a *slice of the original request* instead of re-parsing (and
/// re-copying) the server-rendered suffix at every hop.
[[nodiscard]] std::optional<NameSlice> referral_suffix(
    NameSlice sent, std::string_view remaining);

/// The server side: one endpoint per machine, walking names through the
/// context objects whose shard that machine serves.
///
/// Replication (docs/REPLICATION.md): for a context with a multi-machine
/// replica set, the *primary* serves straight from the naming graph and
/// pushes epoch-stamped binding snapshots to the secondaries
/// (`publish_update`, or periodically via `start_anti_entropy`). A
/// secondary answers from the last snapshot it applied — possibly stale,
/// but stamped with the snapshot's epoch so clients can see exactly how
/// stale — and refers to the primary for contexts it has never synced.
class NameService {
 public:
  NameService(const NamingGraph& graph, Internetwork& net,
              Transport& transport, const AuthorityMap& homes);

  /// Install a server on `machine`; returns its endpoint. A machine
  /// without a server cannot answer for the shards it serves.
  EndpointId add_server(MachineId machine);

  /// Tear the server on `machine` down: unregister its handler, remove
  /// its endpoint and void the leases it granted (a promise nobody can
  /// keep is dropped, not broken mid-flight). The machine's replica store
  /// survives — a later add_server resumes from the snapshots it had
  /// applied, the graceful-leave / rejoin cycle of docs/MEMBERSHIP.md.
  /// No-op for a machine without a server.
  void remove_server(MachineId machine);

  [[nodiscard]] Result<EndpointId> server_on(MachineId machine) const;
  [[nodiscard]] const AuthorityMap& authorities() const { return homes_; }

  /// Push `ctx`'s current bindings + rebind epoch from its primary's
  /// server to every secondary's server, as real kUpdatePush messages —
  /// subject to loss, partitions and crashes like any other traffic. A
  /// no-op for unreplicated contexts or when the primary has no server.
  void publish_update(EntityId ctx);

  /// Anti-entropy: every `interval` ticks, publish_update the contexts
  /// known to have a lagging secondary (the dirty set — see
  /// docs/REPLICATION.md; the first tick after a (re)start sweeps every
  /// replicated context once to seed it). Repair traffic, in the §5 sense:
  /// it bounds how long a lagging secondary can stay behind once
  /// connectivity returns — without re-pushing snapshots the secondaries
  /// already hold. Calling this while running re-times the next tick to
  /// the new interval immediately (the stale scheduled tick is abandoned
  /// by generation stamp).
  void start_anti_entropy(SimDuration interval);
  void stop_anti_entropy();

  /// Per-request service time on every server (0 = infinitely fast, the
  /// default). With a non-zero value each machine's server processes
  /// resolve requests one at a time, FIFO, each occupying the server for
  /// `per_request` ticks — so a hot authority saturates and sharding the
  /// namespace buys real throughput (bench_x7_shard).
  void set_service_time(SimDuration per_request);

  /// The epoch a machine's replica store has applied for `ctx`; nullopt
  /// when that machine never applied a snapshot of it. For staleness-bound
  /// assertions (tests, bench_x4_failover).
  [[nodiscard]] std::optional<std::uint64_t> replica_epoch(
      MachineId machine, EntityId ctx) const;

  /// Lease policy (docs/COHERENCE.md): `duration` is the term granted to
  /// clients that request one (0 disables granting); `capacity` bounds the
  /// per-machine lease table. When the table is full of unexpired leases
  /// the server grants nothing rather than break an outstanding promise
  /// ("lease_table_full").
  void set_lease_policy(SimDuration duration, std::size_t capacity = 4096);
  [[nodiscard]] SimDuration lease_duration() const { return lease_duration_; }
  /// Outstanding (possibly expired, not yet purged) leases granted by
  /// `machine`'s server. For tests and table-bound assertions.
  [[nodiscard]] std::size_t lease_count(MachineId machine) const;

  /// Point-in-time copy of this server group's counters ("ns.server.*");
  /// index by bare field name, e.g. snapshot()["answers"].
  [[nodiscard]] StatsSnapshot snapshot() const;

  /// The tracer / registry this service records into (the transport's).
  /// For the migration driver and planner (src/ns/rebalance.*), which
  /// share the service's observability without owning a transport.
  [[nodiscard]] Tracer& tracer() const { return transport_.tracer(); }
  [[nodiscard]] MetricsRegistry& metrics() const {
    return transport_.metrics();
  }

  // --- Online rebalancing hooks (docs/REBALANCING.md) ----------------------
  // Used by MigrationDriver; safe to ignore everywhere else.

  /// Let `target`'s server apply kUpdatePush snapshots for `ctxs` even
  /// though the authority map does not (yet) list it as a secondary — the
  /// copy phase of a migration fills the target's replica store *before*
  /// the cutover makes it authoritative. close_migration_intake drops the
  /// whole allowance (idempotent).
  void open_migration_intake(MachineId target,
                             const std::vector<EntityId>& ctxs);
  void close_migration_intake(MachineId target);

  /// Push one context's current bindings + rebind epoch to `to`'s server
  /// as a kUpdatePush, regardless of replica-set membership (the copy /
  /// catch-up phases of a migration; delivery is as lossy as any traffic).
  /// False when either end has no live server endpoint.
  bool push_snapshot(EntityId ctx, MachineId to);

  /// Arm forwarding tombstones: until `expires`, every server of
  /// `from_shard` that is asked about one of `ctxs` — which it no longer
  /// owns after a cutover — counts/traces the hit before referring the
  /// client onward to the new owner ("ns.server.forwarded", kForwarded).
  /// Tombstones self-purge at `expires`.
  void install_forwarding(ShardId from_shard,
                          const std::vector<EntityId>& ctxs, SimTime expires);
  /// Distinct contexts `machine`'s server holds in unexpired tombstone
  /// windows. For tests.
  [[nodiscard]] std::size_t forwarding_count(MachineId machine) const;

  /// Register per-subtree load attribution: each root in `roots` claims
  /// the contexts of its subtree (first registration wins), and every
  /// non-duplicate request *starting* at a claimed context bumps
  /// "ns.server.subtree.<root>.hits" — the signal RebalancePlanner uses
  /// to pick which subtree to split off a hot shard.
  void track_subtree_loads(const NamingGraph& graph,
                           const std::vector<EntityId>& roots);

 private:
  /// A secondary's applied snapshot of one context.
  struct ReplicaState {
    std::uint64_t epoch = 0;
    std::vector<Binding> bindings;
  };
  /// One machine's applied snapshot of one context: a link in that
  /// context's chain of the replica table (see store_head_).
  struct ReplicaEntry {
    MachineId machine;
    std::uint32_t next;  ///< next entry for the same context, or kNoEntry
    ReplicaState state;
  };
  static constexpr std::uint32_t kNoEntry = 0xffffffffU;

  /// One callback promise: "holder may trust answers about `ctx` until
  /// `expires`; I will push kInvalidate if `ctx` rebinds before then."
  struct LeaseRecord {
    std::uint64_t id = 0;
    EntityId ctx;
    Pid holder;            ///< client address relative to the granting server
    SimTime expires = 0;
    std::uint64_t epoch = 0;  ///< authority epoch the holder was answered with
  };
  /// Per-machine lease table: id-keyed records plus a per-context index so
  /// a rebind finds its promises without scanning.
  struct LeaseTable {
    std::unordered_map<std::uint64_t, LeaseRecord> by_id;
    std::unordered_map<EntityId, std::vector<std::uint64_t>> by_ctx;
  };

  void handle_request(EndpointId self, const Message& message);
  void handle_update(EndpointId self, const Message& message);
  /// `machine`'s applied snapshot of `ctx`; nullptr when it never applied
  /// one.
  [[nodiscard]] const ReplicaState* find(MachineId machine,
                                         EntityId ctx) const;
  /// `machine`'s snapshot of `ctx`, adding an empty one (epoch 0, no
  /// bindings) when there is none; `second` is true when it was added.
  std::pair<ReplicaState*, bool> find_or_add(MachineId machine, EntityId ctx);
  /// Record `corr` in the bounded recently-seen window; true if it was
  /// already there (i.e. this request is a retransmission).
  bool note_duplicate(std::uint64_t corr);
  /// One anti-entropy round. `gen` is the generation the round was
  /// scheduled under; a round whose generation is stale (start/stop was
  /// called since) returns without publishing or rescheduling, so an
  /// interval change takes effect immediately instead of after one more
  /// old-interval round.
  void anti_entropy_tick(std::uint64_t gen);
  /// Drop `ctx` from the dirty set once every secondary's applied epoch
  /// has caught up with the graph's rebind epoch.
  void maybe_clean(EntityId ctx);
  /// Grant (or renew) a lease on `ctx` to `holder` from `machine`'s
  /// server; returns {duration, lease id}, or {0, 0} when not granted
  /// (granting disabled, or the table is full of unexpired promises).
  std::pair<std::uint64_t, std::uint64_t> grant_lease(MachineId machine,
                                                      EntityId ctx,
                                                      const Pid& holder,
                                                      std::uint64_t epoch,
                                                      std::uint64_t corr);
  /// Push kInvalidate to every unexpired lease on `ctx` granted by
  /// `machine`'s server under an older epoch, then drop those records.
  void push_invalidations(MachineId machine, EntityId ctx);
  /// Drop `machine`'s lease records for `ctx` without pushing (a secondary
  /// applying a snapshot: its promises are superseded by the primary's).
  void drop_leases(MachineId machine, EntityId ctx);
  void erase_lease(LeaseTable& table, std::uint64_t id);

  /// How many correlation ids the duplicate-suppression window remembers.
  static constexpr std::size_t kDuplicateWindow = 1024;

  const NamingGraph& graph_;
  Internetwork& net_;
  Transport& transport_;
  const AuthorityMap& homes_;
  std::unordered_map<MachineId, EndpointId> servers_;
  /// The replica table: what each *secondary* (or migration target) has
  /// applied. store_head_[ctx] indexes the first entry of ctx's chain in
  /// store_entries_ (kNoEntry = no machine holds a snapshot); entries
  /// are never erased. A deque, so the table grows without copying.
  std::vector<std::uint32_t> store_head_;
  std::deque<ReplicaEntry> store_entries_;
  std::unordered_set<std::uint64_t> recent_corr_;
  std::deque<std::uint64_t> recent_corr_order_;  // FIFO eviction
  SimDuration anti_entropy_interval_ = 0;  ///< 0 = not running
  /// Contexts with at least one secondary known to lag (publish_update saw
  /// an epoch gap, or the push could not be delivered). Anti-entropy
  /// rounds iterate only this set — the snapshot-storm fix.
  std::unordered_set<EntityId> ae_dirty_;
  /// First round after a (re)start sweeps all replicated contexts once, to
  /// pick up rebinds that predate the dirty set.
  bool ae_sweep_pending_ = false;
  /// Bumped by every start/stop; a scheduled tick carrying an older
  /// generation is stale and must do nothing.
  std::uint64_t ae_gen_ = 0;
  /// Service-time model: per-request occupancy and per-machine busy
  /// horizon (FIFO single server per machine).
  SimDuration service_time_ = 0;
  std::unordered_map<MachineId, SimTime> busy_until_;
  /// Lease policy and per-machine outstanding promises.
  SimDuration lease_duration_ = 5000;
  std::size_t lease_capacity_ = 4096;
  std::uint64_t next_lease_id_ = 1;
  std::unordered_map<MachineId, LeaseTable> leases_;
  /// Migration intake: target machine → sorted contexts whose pushes it
  /// may apply despite not being a secondary (copy phase allowance).
  std::unordered_map<MachineId, std::vector<EntityId>> intake_;
  /// One cutover's forwarding window on an old-owner machine: the
  /// contexts it moved away (sorted, shared by every replica of the old
  /// shard) and the tick the window closes.
  struct ForwardingWindow {
    std::shared_ptr<const std::vector<EntityId>> ctxs;
    SimTime expires = 0;
  };
  /// Forwarding tombstones: old-owner machine → its windows. A request
  /// for a context some unexpired window holds is counted/traced as
  /// forwarded before the normal referral to the new owner goes out;
  /// windows are dropped at their expiry tick.
  std::unordered_map<MachineId, std::vector<ForwardingWindow>> forwarding_;
  /// Drop every window that has closed.
  void purge_forwarding();
  /// Per-machine load signals for the rebalance planner
  /// ("ns.server.m<id>.served" / ".wait_ticks"): how many requests this
  /// machine's server processed, and the total ticks they waited in its
  /// FIFO queue before service began.
  struct MachineLoad {
    Counter* served = nullptr;
    Counter* wait_ticks = nullptr;
  };
  std::unordered_map<MachineId, MachineLoad> load_;
  /// Subtree load attribution (track_subtree_loads): dense entity →
  /// claiming-root slot (kNoSlot = unclaimed) and the per-root hit
  /// counters, indexed by slot.
  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);
  std::vector<std::uint32_t> subtree_slot_;
  std::vector<Counter*> subtree_hits_;
  Counter* requests_;
  Counter* answers_;
  Counter* referrals_;
  Counter* failures_;
  Counter* duplicates_;
  Counter* update_pushes_;
  Counter* pushes_suppressed_;  ///< epoch-gated: secondary already current
  Counter* updates_applied_;
  Counter* updates_stale_;
  Counter* store_answers_;
  Counter* leases_granted_;
  Counter* lease_renewals_;
  Counter* invalidates_pushed_;
  Counter* lease_table_full_;
  Counter* forwarded_;         ///< tombstoned-context hits in the window
  Counter* migration_pushes_;  ///< push_snapshot copies sent
};

/// Loss-recovery knobs for one class of wire exchange: how often to
/// resend into silence, and how the per-attempt deadline grows. Grouped so
/// a policy travels as one value — the client's normal lookups and the
/// membership-aware rerouting path (docs/MEMBERSHIP.md) can each carry
/// their own. (Until PR 10 these four lived as flat fields directly on
/// ResolverClientConfig; see docs/ASYNC.md for the migration note.)
struct RetryPolicy {
  /// Resend attempts per hop after a timeout (the transport reports
  /// nothing; loss shows up as silence). 0 = fail on first timeout.
  std::size_t retries = 0;
  /// How long (simulated ticks) to wait for a reply before declaring the
  /// hop lost. Must exceed the worst round trip of the topology.
  SimDuration request_timeout = 5000;
  /// Timeout multiplier applied after each loss (exponential backoff).
  double backoff_multiplier = 2.0;
  /// Upper bound for the backed-off timeout. 0 = uncapped.
  SimDuration max_timeout = 60000;
};

struct ResolverClientConfig {
  /// Positive-entry TTL in simulator ticks; 0 disables positive caching.
  SimDuration cache_ttl = 0;
  /// TTL for cached *errors* (negative caching, DNS-style); usually much
  /// shorter than cache_ttl. 0 disables negative caching.
  SimDuration negative_cache_ttl = 0;
  /// Maximum cached entries (positive + negative); the least recently used
  /// entry is evicted on insert. 0 = unbounded (not recommended).
  std::size_t cache_capacity = 1024;
  /// Drop cached entries whose authoritative context has answered (any
  /// later request) with a higher rebind epoch.
  bool epoch_invalidation = true;
  /// The unified resolution options (core/resolve.hpp). The client reads
  /// `resolve.max_referrals` (its referral-chase cycle guard); the local-
  /// walk fields are documented there and ignored here.
  ResolveOptions resolve;
  /// Loss recovery for this client's exchanges: resend attempts, attempt
  /// deadline and its exponential backoff.
  RetryPolicy retry;
  /// After a replica exhausts its retry budget, how long (simulated ticks)
  /// the client treats it as *suspect* — still usable as a last resort,
  /// but ordered after every live replica when a hop has alternatives.
  SimDuration replica_quarantine = 30000;
  /// Lease coherence (docs/COHERENCE.md): request leases on answers and
  /// honor server-pushed kInvalidate callbacks. Off by default — answers
  /// then ride the plain TTL and the server's lease table stays empty.
  bool lease_coherence = false;
  /// Bound on the per-authority high-water epoch table (epochs_seen_); the
  /// least recently touched authority is forgotten first. 0 = unbounded.
  std::size_t epoch_table_capacity = 4096;
  /// Shard-aware routing (docs/SHARDING.md): read the shard id every
  /// referral carries, remember shard → replica-set routes learned from
  /// the referral's replica list, and go straight to the owning shard's
  /// servers on later hops instead of re-walking through the delegating
  /// authority. Off by default — the shard id on the wire is then ignored.
  bool shard_routing = false;
};

/// The caller's view of one asynchronous resolution (docs/ASYNC.md). A
/// small shared handle: the engine writes the outcome into the shared
/// state when the resolution settles; any number of handle copies observe
/// it. Handles never block — drive the simulator (or use the blocking
/// resolve()) to make progress.
class ResolveHandle {
 public:
  struct State {
    bool done = false;
    Result<EntityId> result =
        internal_error("resolution still in flight");
    std::uint64_t span = 0;  ///< this waiter's trace span (0 = tracing off)
  };

  ResolveHandle() = default;
  explicit ResolveHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const { return state_ != nullptr && state_->done; }
  /// The settled outcome; requires done().
  [[nodiscard]] const Result<EntityId>& result() const {
    NAMECOH_CHECK(done(), "ResolveHandle::result() before completion");
    return state_->result;
  }
  /// The span id this waiter's resolution is recorded under (0 when the
  /// tracer was disabled at submission).
  [[nodiscard]] std::uint64_t span() const {
    return state_ == nullptr ? 0 : state_->span;
  }

 private:
  std::shared_ptr<State> state_;
};

/// Completion callback for resolve_async: invoked exactly once, inside the
/// simulator event that settles the resolution (or synchronously at
/// submission for cache hits and immediate errors).
using ResolveCallback = std::function<void(const Result<EntityId>&)>;

/// The client side: a process endpoint that resolves names by talking to
/// the authoritative servers, following referrals.
class ResolverClient {
 public:
  ResolverClient(const NamingGraph& graph, Internetwork& net,
                 Transport& transport, Simulator& sim,
                 const NameService& service, MachineId machine,
                 std::string label, ResolverClientConfig config = {});
  ~ResolverClient();

  ResolverClient(const ResolverClient&) = delete;
  ResolverClient& operator=(const ResolverClient&) = delete;

  /// Begin resolving `name` starting at the context object `start` and
  /// return immediately. The resolution progresses as the simulator runs:
  /// every send, timeout, backoff resend, failover and referral chase is a
  /// scheduled continuation, so many resolutions overlap on one client. A
  /// lookup identical to one already in flight (same start, same name
  /// atoms) *coalesces*: it attaches to the existing wire exchange instead
  /// of sending, and settles with it ("coalesced" counter, kCoalesced
  /// trace event). Cache hits and immediately-detectable errors settle
  /// synchronously, before this returns. When the transport's tracer is
  /// enabled, each waiter gets its own span; the wire-level events of a
  /// shared exchange are recorded under the owning (first) waiter's span.
  ResolveHandle resolve_async(EntityId start, const CompoundName& name);
  /// Callback form: `on_done` fires exactly once when the resolution
  /// settles (synchronously for cache hits; from inside a simulator event
  /// otherwise). The callback may submit new resolutions.
  ResolveHandle resolve_async(EntityId start, const CompoundName& name,
                              ResolveCallback on_done);
  /// Per-request options form: `options` overrides the config's
  /// `resolve` options for this lookup only. Lookups whose effective
  /// options differ in a way that changes the wire outcome
  /// (max_referrals) never coalesce with each other — a mismatched
  /// waiter runs its own exchange instead ("coalesce_rejected").
  ResolveHandle resolve_async(EntityId start, const CompoundName& name,
                              const ResolveOptions& options,
                              ResolveCallback on_done = {});

  /// Blocking form: submit via resolve_async, then drive the simulator
  /// until that handle settles. Byte-identical results, counters and span
  /// structure to the pre-async resolver; other in-flight work naturally
  /// progresses while this waits.
  Result<EntityId> resolve(EntityId start, const CompoundName& name);
  Result<EntityId> resolve(EntityId start, const CompoundName& name,
                           const ResolveOptions& options);

  /// Point-in-time copy of this client's counters
  /// ("ns.client.<endpoint-id>.*"); index by bare field name, e.g.
  /// snapshot()["cache_hits"].
  [[nodiscard]] StatsSnapshot snapshot() const;

  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  /// Resolutions currently in flight (coalesced waiters share one entry).
  [[nodiscard]] std::size_t inflight() const { return requests_.size(); }

  void clear_cache() {
    cache_.clear();
    lru_.clear();
  }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

  /// Membership-aware route healing (docs/MEMBERSHIP.md): with a
  /// directory attached, every send first checks its target against the
  /// membership view. A target whose machine has *left* is skipped
  /// without burning its timeout budget (and the hop re-derives fresh
  /// candidates from the authority map once); a target whose machine was
  /// *renamed* since the route was learned gets its pid re-derived from
  /// the machine's current server address ("ns.member.routes_healed",
  /// kRouteHealed). Detach (nullptr) restores the membership-blind
  /// behaviour.
  void attach_membership(const MembershipDirectory* directory) {
    membership_ = directory;
  }

 private:
  // Keys are (start context, name) with the name held as interned atoms:
  // hashing and equality are integer scans, and a key copy is a memcpy for
  // names that fit the inline buffer (no heap, unlike the path-string keys
  // this replaced). The same key identifies identical in-flight lookups
  // for coalescing.
  struct CacheKey {
    EntityId start;
    CompoundName name;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const {
      std::size_t seed = 0;
      hash_combine(seed, key.start);
      hash_combine(seed, key.name);
      return seed;
    }
  };
  struct CacheEntry {
    EntityId entity;         ///< positive entries: the answer
    SimTime expires;         ///< entry is dead once now >= expires
    EntityId authority;      ///< context whose bindings produced the reply
    std::uint64_t epoch;     ///< authority's rebind epoch at answer time
    bool negative;           ///< true: a cached resolution error
    std::string error;       ///< negative entries: the server's message
    // Lease state (docs/COHERENCE.md); lease_id == 0 means no lease —
    // the entry is plain-TTL.
    std::uint64_t lease_id = 0;
    SimTime lease_expires = 0;     ///< server's promise ends here
    SimDuration lease_duration = 0;  ///< granted term (for renew margin)
    std::list<CacheKey>::iterator lru{};  ///< position in lru_
  };

  /// One server a hop may talk to: its pid in this client's context, plus
  /// the machine it serves for (always known: the authority map and every
  /// reply name it). `incarnation` is the machine's membership incarnation
  /// when the route was minted (0 = no directory attached / unknown): a
  /// later rename bumps the directory's incarnation, marking this pid as
  /// minted against dead addresses.
  struct ReplicaRef {
    Pid pid;
    MachineId machine;
    std::uint64_t incarnation = 0;
  };

  /// One completion to deliver when a resolution settles.
  struct Waiter {
    std::shared_ptr<ResolveHandle::State> state;
    ResolveCallback callback;
  };

  /// The per-request state machine (docs/ASYNC.md). Heap-pinned for its
  /// whole life: `remaining` is a slice into `key.name`'s inline buffer
  /// and scheduled continuations hold the record's id, so the record must
  /// never move.
  struct PendingResolve {
    PendingResolve(std::uint64_t request_id, CacheKey request_key)
        : id(request_id), key(std::move(request_key)) {}

    std::uint64_t id;
    CacheKey key;          ///< owns the name the slices point into
    std::size_t max_referrals = 0;  ///< this exchange's referral budget —
                                    ///< part of the coalescing identity
    bool refresh = false;  ///< background lease renewal: no waiters, does
                           ///< not count as a resolution
    EntityId current;      ///< context the current hop asks about
    NameSlice remaining;   ///< unresolved tail, narrowed per referral
    std::string hop_text;  ///< wire text of `remaining`
    std::size_t hops_done = 0;  ///< replies processed (referral guard)
    std::vector<ReplicaRef> candidates;  ///< this hop's replica set
    std::vector<std::size_t> order;  ///< candidate indices, suspects last
    std::size_t candidate = 0;  ///< position in `order`
    std::size_t attempt = 0;    ///< resend attempt on this candidate
    SimDuration timeout = 0;    ///< current (backed-off) attempt timeout
    SimTime hop_begin = 0;
    bool failed_over = false;   ///< this hop moved past a replica
    Status last_error;          ///< best failure to report if all fail
    std::uint64_t expected_corr = 0;  ///< outstanding attempt's id (0=none)
    EventId timeout_event;      ///< pending deadline (invalid = none)
    bool timeout_deferred = false;  ///< deadline-tie deferral used up
    std::uint64_t owner_span = 0;  ///< first waiter's span: wire events
    /// Membership healing: this hop already re-derived its candidates
    /// from the authority map once after hitting a departed machine.
    bool rerouted = false;
    /// Shard the current hop's context belongs to, as far as this client
    /// knows (NsWire::kNoShard when unknown) — cross-shard hop accounting.
    std::uint64_t hop_shard = NsWire::kNoShard;
    std::vector<Waiter> waiters;   ///< everyone settled by this exchange
  };

  ResolveHandle resolve_async_impl(EntityId start, const CompoundName& name,
                                   const ResolveOptions& options,
                                   ResolveCallback callback);
  /// Create the wire exchange for `key` and index it in inflight_; the
  /// caller attaches waiters and then calls start_hop. Returns nullptr
  /// (with `*error` set) when the exchange cannot even start — no local
  /// server, dead endpoints.
  PendingResolve* launch_exchange(CacheKey key, std::size_t max_referrals,
                                  bool refresh, Status* error);

  // Engine continuations, in the order a lossless resolution runs them.
  void start_hop(PendingResolve& p);
  void begin_candidate(PendingResolve& p);
  void send_attempt(PendingResolve& p);
  void on_timeout(std::uint64_t id);
  void handle_reply(const Message& message);
  void on_reply(PendingResolve& p, const ResolveReply& reply);
  /// Server-pushed kInvalidate: bump the epoch high-water
  /// mark and drop cache entries the voided lease covered.
  void handle_invalidate(const Message& message);
  /// Cache hit with the lease term nearly out: kick off a background
  /// refresh exchange (waiter-less) so the promise stays unbroken.
  void maybe_renew(const CacheKey& key, const CacheEntry& entry);
  void fail_candidate(PendingResolve& p, Status error);
  /// Membership healing (attach_membership). Checks the current target
  /// against the directory; may rewrite its pid in place, restart the hop
  /// with fresh candidates, or fail the candidate. True = control flow
  /// was taken over and send_attempt must return without sending.
  bool heal_target(PendingResolve& p);
  /// Re-derive this hop's candidates from the authority map (the
  /// departed-machine recovery path) and restart the hop.
  void reroute_hop(PendingResolve& p);
  /// Forget learned shard routes through `machine` (it left the fabric).
  void purge_routes(MachineId machine);
  /// Rewrite learned shard routes through `machine` to its fresh pid.
  void refresh_routes(MachineId machine, const Pid& pid,
                      std::uint64_t incarnation);
  /// The membership incarnation to stamp a freshly minted route with.
  [[nodiscard]] std::uint64_t member_incarnation(MachineId machine) const;
  /// Detach the request from every engine map, then settle all waiters.
  void complete(PendingResolve& p, const Result<EntityId>& result);
  /// Close the waiter's span, count failures, store the result, invoke the
  /// callback. The one funnel every outcome (sync or async) goes through.
  void settle_waiter(Waiter& waiter, const Result<EntityId>& result);

  /// The hop's candidates for resolving `ctx`: the server reached through
  /// `via` first (the referral target / local machine), then the rest of
  /// ctx's replica set as known to the service's authority map, deduped.
  [[nodiscard]] std::vector<ReplicaRef> candidates_for(
      EntityId ctx, const ReplicaRef& via) const;
  [[nodiscard]] bool is_suspect(MachineId machine) const;

  /// Cache plumbing: TTL + epoch validation + LRU touch on hit; bounded
  /// insert with LRU eviction; high-water epoch bookkeeping. `span` is the
  /// probing waiter's span, for kStaleEpochDrop attribution.
  const CacheEntry* cache_lookup(const CacheKey& key, std::uint64_t span);
  void cache_insert(const CacheKey& key, CacheEntry entry);
  void note_epoch(EntityId authority, std::uint64_t epoch);

  const NamingGraph& graph_;
  Internetwork& net_;
  Transport& transport_;
  Simulator& sim_;
  const NameService& service_;
  EndpointId endpoint_;
  ResolverClientConfig config_;
  std::string metrics_prefix_;  ///< "ns.client.<endpoint-id>."
  Counter* resolutions_;
  Counter* messages_sent_;
  Counter* referrals_followed_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* failures_;
  Counter* evictions_;
  Counter* negative_hits_;
  Counter* stale_epoch_drops_;
  Counter* timeouts_;
  Counter* backoff_retries_;
  Counter* stale_replies_dropped_;
  Counter* failovers_;
  Counter* coalesced_;
  Counter* coalesce_rejected_;  ///< identical key, incompatible options
  Counter* invalidates_received_;
  Counter* lease_renewals_;     ///< background refresh exchanges launched
  Counter* lease_degrades_;     ///< lease lapsed / renewal failed → TTL
  // Sharding counters (docs/SHARDING.md). Registered registry-wide as
  // "ns.shard.*" — one set shared by every client on the registry, since
  // the fabric-level question ("how many referrals crossed shards?") spans
  // clients.
  Counter* delegations_chased_;  ///< referrals whose shard was learned
  Counter* glue_hits_;           ///< next hop's candidates: a learned route
  Counter* cross_shard_hops_;    ///< hop moved to a different shard
  Counter* route_reuses_;        ///< first hop reused a learned shard route
  // Membership counters (docs/MEMBERSHIP.md). Registry-wide as
  // "ns.member.*", like the sharding set: route health is a fabric-level
  // question that spans clients.
  Counter* routes_healed_;       ///< stale pid re-derived before sending
  Counter* dead_route_skips_;    ///< candidate skipped: machine left
  Gauge* epochs_tracked_;       ///< live size of the epoch high-water table
  /// Simulated ticks from the first send of a hop to the first reply,
  /// recorded only for hops that failed over at least once.
  Histogram* failover_latency_;
  /// Staleness windows actually closed by a kInvalidate push: ticks from
  /// the rebind to the client dropping its superseded entries.
  Histogram* stale_window_;
  /// Replica health: machine → simulated time until which it is suspect.
  /// Entries are erased on a successful round trip to the machine.
  std::unordered_map<MachineId, SimTime> suspect_until_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::list<CacheKey> lru_;  ///< front = most recently used
  /// Highest rebind epoch seen per authoritative context; entries cached
  /// under an older epoch are superseded. Bounded LRU
  /// (config.epoch_table_capacity): the least recently *touched* authority
  /// is forgotten first — forgetting only weakens invalidation back to
  /// plain TTL, it never serves wrong data.
  struct EpochRecord {
    std::uint64_t epoch = 0;
    std::list<EntityId>::iterator lru;
  };
  std::unordered_map<EntityId, EpochRecord> epochs_seen_;
  std::list<EntityId> epoch_lru_;  ///< front = most recently touched
  /// Shard routes learned from referrals: wire shard id → the delegate
  /// shard's replica servers. Trusted until a resolution through them
  /// fails over (the normal suspect machinery still applies per machine).
  std::unordered_map<std::uint64_t, std::vector<ReplicaRef>> shard_routes_;
  /// Delegation boundaries learned from referrals: context → owning wire
  /// shard.
  std::unordered_map<EntityId, std::uint64_t> ctx_shards_;

  // Engine state. Requests are keyed by a client-local id; the unique_ptr
  // pins each record so slices and continuations stay valid. A reply is
  // accepted only when its correlation id is routed in corr_to_request_ —
  // the id is unrouted the moment an attempt times out or settles, so a
  // delayed reply from an earlier attempt, an earlier hop, or another
  // resolution can never be mis-taken for a current answer.
  std::uint64_t next_corr_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<PendingResolve>>
      requests_;
  /// Identical-lookup index for coalescing: key → live requests. Usually
  /// one; more when per-request options forbade attaching to the first
  /// (each option variant runs its own exchange).
  std::unordered_map<CacheKey, std::vector<PendingResolve*>, CacheKeyHash>
      inflight_;
  /// Currently-awaited correlation ids → owning request id.
  std::unordered_map<std::uint64_t, std::uint64_t> corr_to_request_;
  MachineId client_machine_;  ///< where this client endpoint lives
  /// Membership view for route healing; nullptr = membership-blind.
  const MembershipDirectory* membership_ = nullptr;
};

}  // namespace namecoh

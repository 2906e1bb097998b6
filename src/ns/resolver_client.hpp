// The client side of the distributed name service (src/ns/name_service.hpp).
// A ResolverClient issues requests, follows referrals, retries lost
// messages with a timed exponential backoff, and keeps a bounded-LRU TTL
// cache of (context, path) → entity with optional negative entries and
// epoch-based invalidation.
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

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/name.hpp"
#include "ns/name_service.hpp"
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

/// Loss-recovery knobs for the client's wire exchanges: how often to
/// resend into silence, and how long the per-attempt deadline may grow
/// (each loss doubles it).
struct RetryPolicy {
  /// Resend attempts per hop after a timeout (the transport reports
  /// nothing; loss shows up as silence). 0 = fail on first timeout.
  std::size_t retries = 0;
  /// How long (simulated ticks) to wait for a reply before declaring the
  /// hop lost. Must exceed the worst round trip of the topology.
  SimDuration request_timeout = 5000;
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
  /// Referral-chase limit (cycle guard): how many referrals one exchange
  /// follows before it settles with DEPTH_EXCEEDED. Each server walks its
  /// own part of the name under its own local step limit.
  std::size_t max_referrals = 32;
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
  ResolverClient(Internetwork& net, Transport& transport, Simulator& sim,
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
  /// trace event). Every exchange runs under the config's referral
  /// limit, so all waiters on one key settle alike. Cache hits and
  /// immediately-detectable errors settle synchronously, before this
  /// returns. When the transport's tracer is enabled, each waiter gets its
  /// own span; the wire-level events of a shared exchange are recorded
  /// under the owning (first) waiter's span. `on_done`, if set, fires
  /// exactly once when the resolution settles (synchronously for cache
  /// hits; from inside a simulator event otherwise) and may submit new
  /// resolutions.
  ResolveHandle resolve_async(EntityId start, const CompoundName& name,
                              ResolveCallback on_done = {});

  /// Blocking form: submit via resolve_async, then drive the simulator
  /// until that handle settles. Other in-flight work naturally progresses
  /// while this waits.
  Result<EntityId> resolve(EntityId start, const CompoundName& name);

  /// Point-in-time copy of this client's counters
  /// ("ns.client.<endpoint-id>.*"); index by bare field name, e.g.
  /// snapshot()["cache_hits"].
  [[nodiscard]] StatsSnapshot snapshot() const;

  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  /// Resolutions currently in flight (coalesced waiters share one entry).
  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }

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
  // names that fit the inline buffer. The same key identifies identical
  // in-flight lookups for coalescing.
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
  /// and the engine maps point at the record, so it must never move.
  struct PendingResolve {
    explicit PendingResolve(CacheKey request_key)
        : key(std::move(request_key)) {}

    CacheKey key;          ///< owns the name the slices point into
    bool refresh = false;  ///< background lease renewal: no waiters, does
                           ///< not count as a resolution
    EntityId current;      ///< context the current hop asks about
    NameSlice remaining;   ///< unresolved tail, narrowed per referral
    std::string hop_text;  ///< wire text of `remaining`
    std::size_t hops_done = 0;  ///< replies processed (referral guard)
    /// This hop's replica set, reordered by start_hop: suspects last.
    std::vector<ReplicaRef> candidates;
    std::size_t candidate = 0;  ///< position in `candidates`
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

  /// Create the wire exchange for `key` and index it in inflight_; the
  /// caller attaches waiters and then calls start_hop. Fails when the
  /// exchange cannot even start — no local server, dead endpoints.
  Result<PendingResolve*> launch_exchange(CacheKey key, bool refresh);

  // Engine continuations, in the order a lossless resolution runs them.
  void start_hop(PendingResolve& p);
  void begin_candidate(PendingResolve& p);
  void send_attempt(PendingResolve& p);
  /// The deadline of the attempt sent under `corr`; a no-op once that
  /// corr is no longer awaited (answered, or its exchange settled).
  void on_timeout(std::uint64_t corr);
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
  /// with candidates re-derived from the authority map, or fail the
  /// candidate. True = control flow was taken over and send_attempt must
  /// return without sending.
  bool heal_target(PendingResolve& p);
  /// Forget learned shard routes through `machine` (it left the fabric).
  void purge_routes(MachineId machine);
  /// Rewrite learned shard routes through `machine` to its fresh pid.
  void refresh_routes(MachineId machine, const Pid& pid,
                      std::uint64_t incarnation);
  /// The membership incarnation to stamp a freshly minted route with.
  [[nodiscard]] std::uint64_t member_incarnation(MachineId machine) const;
  /// The route to `machine`'s server, stamped with its membership
  /// incarnation; fails when it has no server or an endpoint is dead.
  [[nodiscard]] Result<ReplicaRef> route_to(MachineId machine) const;
  /// Unroute the outstanding corr and take the exchange out of inflight_,
  /// then settle all waiters.
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
  /// Cache `reply` (answer or error) for `ttl` (0: not at all), with its lease.
  void cache_reply(const CacheKey& key, const ResolveReply& reply,
                   SimDuration ttl);
  /// The lease lapsed or its renewal failed: the entry rides out its plain
  /// TTL, the pre-lease bound, from now on.
  void degrade_lease(EntityId start, CacheEntry& entry, std::uint64_t span);
  void note_epoch(EntityId authority, std::uint64_t epoch);

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
  Counter* invalidates_received_;
  Counter* lease_renewals_;     ///< background refresh exchanges launched
  Counter* lease_degrades_;     ///< lease lapsed / renewal failed → TTL
  // Sharding counters (docs/SHARDING.md). Registered registry-wide as
  // "ns.shard.*" — one set shared by every client on the registry, since
  // the fabric-level question ("how many referrals crossed shards?") spans
  // clients.
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

  // Engine state: two maps, one per way in. inflight_ owns every exchange
  // under its key — one live exchange per (start, name), which is the
  // coalescing rule — and its unique_ptr pins the record so slices into
  // the key stay valid. corr_to_request_ routes the one awaited
  // correlation id of each exchange to its record. A reply and a timeout
  // both act only while their corr is routed there; the id is unrouted the
  // moment its attempt times out, is answered or settles, so a delayed
  // reply or deadline from an earlier attempt, an earlier hop, or another
  // resolution can never be mistaken for a current one.
  std::uint64_t next_corr_ = 1;
  std::unordered_map<CacheKey, std::unique_ptr<PendingResolve>, CacheKeyHash>
      inflight_;
  std::unordered_map<std::uint64_t, PendingResolve*> corr_to_request_;
  MachineId client_machine_;  ///< where this client endpoint lives
  /// Membership view for route healing; nullptr = membership-blind.
  const MembershipDirectory* membership_ = nullptr;
};

}  // namespace namecoh

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
//   * ResolverClient — the client side (src/ns/resolver_client.hpp).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/naming_graph.hpp"
#include "net/transport.hpp"
#include "ns/authority_map.hpp"
#include "ns/ns_wire.hpp"
#include "obs/snapshot.hpp"

namespace namecoh {

/// The server side: one endpoint per machine, walking names through the
/// context objects whose shard that machine serves.
///
/// Replication (docs/REPLICATION.md): for a context with a multi-machine
/// replica set, the *primary* serves straight from the naming graph and
/// pushes epoch-stamped binding snapshots to the secondaries
/// (`publish_update`, or periodically via `start_anti_entropy`). A
/// secondary answers from the last snapshot it applied — possibly stale,
/// but stamped with the snapshot's epoch so clients can see exactly how
/// stale — and refers to the primary for contexts it has never synced
/// (or holds only the epoch of: an epoch-only migration intake).
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

  /// The epoch a machine's replica store has applied for `ctx`, full or
  /// epoch-only; nullopt when that machine never applied a snapshot of it.
  /// For staleness-bound assertions (tests, bench_x4_failover) and the
  /// migration driver's catch-up.
  [[nodiscard]] std::optional<std::uint64_t> replica_epoch(
      MachineId machine, EntityId ctx) const;

  /// Lease policy (docs/COHERENCE.md): `duration` is the term granted to
  /// clients that request one (0 disables granting); `capacity` bounds the
  /// per-machine lease table. When the table is full of unexpired leases
  /// the server grants nothing rather than break an outstanding promise
  /// ("lease_table_full").
  void set_lease_policy(SimDuration duration, std::size_t capacity = 4096);
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

  /// What a migration target keeps of the copies pushed to it. A target
  /// shard's secondaries will answer from their copies after the cutover,
  /// so they keep them whole; its primary will answer from the naming
  /// graph, so it needs only the epochs the catch-up rounds compare.
  enum class Intake : std::uint8_t { kFullCopy, kEpochOnly };

  /// Let `target`'s server apply kUpdatePush snapshots for `ctxs` even
  /// though the authority map does not (yet) list it as a secondary — the
  /// copy phase of a migration fills the target's replica store *before*
  /// the cutover makes it authoritative. Under kEpochOnly the server checks
  /// each push as strictly as a full apply but builds and interns no
  /// binding: it keeps the epoch in an entry the walk never serves.
  /// Opening again merges the lists; a context listed under both kinds
  /// keeps full copies. close_migration_intake drops the whole allowance
  /// (idempotent).
  void open_migration_intake(MachineId target,
                             const std::vector<EntityId>& ctxs, Intake kind);
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
  static constexpr std::uint32_t kNoEntry = 0xffffffffU;
  /// One machine's applied snapshot of one context: a link in that
  /// context's chain of the replica table (see store_head_).
  struct ReplicaEntry {
    MachineId machine;
    std::uint32_t next = kNoEntry;  ///< next entry for the same context
    /// Applied through an epoch-only intake: `epoch` is the snapshot's,
    /// `bindings` stays empty, and the walk treats the entry as never
    /// synced. A full snapshot at the same epoch fills it.
    bool epoch_only = false;
    std::uint64_t epoch = 0;
    std::vector<Binding> bindings;
  };
  // The flag sits in the padding after `next`: an entry stays 48 bytes.
  static_assert(sizeof(ReplicaEntry) <= 48);
  /// A migration intake's allowance for one context.
  struct IntakeContext {
    EntityId ctx;
    Intake kind;
  };

  /// One callback promise: "holder may trust answers about the context
  /// until `expires`; I will push kInvalidate if it rebinds before then."
  struct LeaseRecord {
    std::uint64_t id = 0;
    Pid holder;            ///< client address relative to the granting server
    SimTime expires = 0;
    std::uint64_t epoch = 0;  ///< authority epoch the holder was answered with
  };
  /// Per-machine lease table, keyed by context so a rebind finds its
  /// promises without scanning. Each context's records stay in grant
  /// order, the order push_invalidations sends in; `count` is the total.
  struct LeaseTable {
    std::unordered_map<EntityId, std::vector<LeaseRecord>> by_ctx;
    std::size_t count = 0;
  };

  /// One resolve request being served, shared by handle_request's steps.
  struct Inbound {
    EndpointId self;
    const Message& message;
    ResolveRequest request;
    MachineId machine;   ///< the serving machine
    Location location;   ///< self's; reply pids are relative to it
    bool duplicate;      ///< a retransmission: answered, but not counted
    void count(Counter* counter) const {
      if (!duplicate) counter->inc();
    }
  };
  /// One machine's server: its endpoint, its load signals for the
  /// rebalance planner ("ns.server.m<id>.served" / ".wait_ticks": requests
  /// processed, and the ticks they waited in its FIFO before service
  /// began), and the tick its FIFO is busy until under the service-time
  /// model.
  struct Server {
    EndpointId endpoint;
    Counter* served = nullptr;
    Counter* wait_ticks = nullptr;
    SimTime busy_until = 0;
  };
  /// A machine's server endpoint and where it lives.
  struct LiveServer {
    EndpointId endpoint;
    Location location;
  };

  void handle_request(EndpointId self, const Message& message);
  // handle_request's steps, in the order a request meets them; `admit`
  // returns nullopt for a malformed request or a server that is gone.
  std::optional<Inbound> admit(EndpointId self, const Message& message);
  void walk(const Inbound& in, EntityId ctx, NameSlice components);
  void note_forwarded(const Inbound& in, EntityId ctx);
  void refer_to_primary(const Inbound& in, EntityId ctx, MachineId primary,
                        NameSlice rest);
  void send_reply(const Inbound& in, std::uint64_t disposition,
                  EntityId entity, std::string remaining, std::string error,
                  EntityId authority,
                  std::optional<std::uint64_t> epoch = std::nullopt);
  void send_error(const Inbound& in, std::string error,
                  EntityId authority = {},
                  std::optional<std::uint64_t> epoch = std::nullopt);
  /// `machine`'s server, when it has one whose endpoint is alive.
  [[nodiscard]] std::optional<LiveServer> live_server(MachineId machine) const;
  /// Send `ctx`'s current bindings and rebind epoch from `from` to `to`.
  bool send_snapshot(const LiveServer& from, const LiveServer& to,
                     EntityId ctx);

  void handle_update(EndpointId self, const Message& message);
  /// How `machine` takes a push of `ctx`: whole when it is a secondary,
  /// as its migration intake says when one lists `ctx`; nullopt for a
  /// stray.
  [[nodiscard]] std::optional<Intake> intake_of(MachineId machine,
                                                EntityId ctx) const;
  /// `machine`'s applied snapshot of `ctx`; nullptr when it never applied
  /// one.
  [[nodiscard]] const ReplicaEntry* find(MachineId machine,
                                         EntityId ctx) const;
  /// `machine`'s snapshot of `ctx`, adding an empty one (epoch 0, no
  /// bindings) when there is none; `second` is true when it was added.
  std::pair<ReplicaEntry*, bool> find_or_add(MachineId machine, EntityId ctx);
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

  /// How many correlation ids the duplicate-suppression window remembers.
  static constexpr std::size_t kDuplicateWindow = 1024;

  const NamingGraph& graph_;
  Internetwork& net_;
  Transport& transport_;
  const AuthorityMap& homes_;
  /// One record per machine with a server; remove_server erases it whole.
  std::unordered_map<MachineId, Server> servers_;
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
  /// Service-time model: per-request occupancy (each machine's FIFO
  /// horizon is Server::busy_until).
  SimDuration service_time_ = 0;
  /// Lease policy and per-machine outstanding promises.
  SimDuration lease_duration_ = 5000;
  std::size_t lease_capacity_ = 4096;
  std::uint64_t next_lease_id_ = 1;
  std::unordered_map<MachineId, LeaseTable> leases_;
  /// Migration intake: target machine → the contexts whose pushes it may
  /// apply despite not being a secondary (copy phase allowance), sorted by
  /// context, one entry each.
  std::unordered_map<MachineId, std::vector<IntakeContext>> intake_;
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
  /// Subtree load attribution (track_subtree_loads): dense entity →
  /// claiming-root slot (kNoSlot = unclaimed) and the per-root hit
  /// counters, indexed by slot.
  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);
  std::vector<std::uint32_t> subtree_slot_;
  std::vector<Counter*> subtree_hits_;
  Counter* requests_received_;
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

}  // namespace namecoh

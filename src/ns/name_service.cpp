#include "ns/name_service.hpp"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

namespace namecoh {
namespace {

/// The secondary store read: what `component` is bound to in an applied
/// snapshot.
Result<EntityId> read_store(std::span<const Binding> bindings,
                            const Name& component) {
  auto hit = std::find_if(bindings.begin(), bindings.end(),
                          [&](const Binding& b) { return b.name == component; });
  // The error text crosses the wire; build it only on a miss.
  if (hit != bindings.end()) return hit->entity;
  return not_found_error("NOT_FOUND: no binding for '" + component.text() +
                         "'");
}

}  // namespace

NameService::NameService(const NamingGraph& graph, Internetwork& net,
                         Transport& transport, const AuthorityMap& homes)
    : graph_(graph), net_(net), transport_(transport), homes_(homes) {
  MetricsRegistry& metrics = transport_.metrics();
  requests_received_ = &metrics.counter("ns.server.requests");
  answers_ = &metrics.counter("ns.server.answers");
  referrals_ = &metrics.counter("ns.server.referrals");
  failures_ = &metrics.counter("ns.server.failures");
  duplicates_ = &metrics.counter("ns.server.duplicates");
  update_pushes_ = &metrics.counter("ns.server.update_pushes");
  pushes_suppressed_ = &metrics.counter("ns.server.pushes_suppressed");
  updates_applied_ = &metrics.counter("ns.server.updates_applied");
  updates_stale_ = &metrics.counter("ns.server.updates_stale");
  store_answers_ = &metrics.counter("ns.server.store_answers");
  leases_granted_ = &metrics.counter("ns.server.leases_granted");
  lease_renewals_ = &metrics.counter("ns.server.lease_renewals");
  invalidates_pushed_ = &metrics.counter("ns.server.invalidates_pushed");
  lease_table_full_ = &metrics.counter("ns.server.lease_table_full");
  forwarded_ = &metrics.counter("ns.server.forwarded");
  migration_pushes_ = &metrics.counter("ns.server.migration_pushes");
}

StatsSnapshot NameService::snapshot() const {
  return StatsSnapshot(transport_.metrics(), "ns.server.");
}

void NameService::set_lease_policy(SimDuration duration,
                                   std::size_t capacity) {
  lease_duration_ = duration;
  lease_capacity_ = capacity;
}

std::size_t NameService::lease_count(MachineId machine) const {
  auto it = leases_.find(machine);
  return it == leases_.end() ? 0 : it->second.count;
}

std::pair<std::uint64_t, std::uint64_t> NameService::grant_lease(
    MachineId machine, EntityId ctx, const Pid& holder, std::uint64_t epoch,
    std::uint64_t corr) {
  if (lease_duration_ == 0) return {0, 0};
  const SimTime now = transport_.simulator().now();
  LeaseTable& table = leases_[machine];
  // Renewal: the holder already has a promise on this context — refresh
  // its term under the same id instead of stacking a second record.
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it != table.by_ctx.end()) {
    for (LeaseRecord& record : ctx_it->second) {
      if (record.holder == holder) {
        record.expires = now + lease_duration_;
        record.epoch = epoch;
        lease_renewals_->inc();
        transport_.tracer().record(now, EventKind::kLeaseGrant, corr,
                                   ctx.value(), record.id);
        return {lease_duration_, record.id};
      }
    }
  }
  if (lease_capacity_ > 0 && table.count >= lease_capacity_) {
    // Purge lapsed promises first; a table genuinely full of *unexpired*
    // leases grants nothing — breaking an outstanding promise silently
    // would forfeit the coherence the lease bought.
    for (auto it = table.by_ctx.begin(); it != table.by_ctx.end();) {
      table.count -= std::erase_if(it->second, [now](const LeaseRecord& r) {
        return r.expires <= now;
      });
      it = it->second.empty() ? table.by_ctx.erase(it) : std::next(it);
    }
    if (table.count >= lease_capacity_) {
      lease_table_full_->inc();
      return {0, 0};
    }
  }
  const std::uint64_t id = next_lease_id_++;
  table.by_ctx[ctx].push_back(
      LeaseRecord{id, holder, now + lease_duration_, epoch});
  ++table.count;
  leases_granted_->inc();
  transport_.tracer().record(now, EventKind::kLeaseGrant, corr, ctx.value(),
                             id);
  return {lease_duration_, id};
}

void NameService::push_invalidations(MachineId machine, EntityId ctx) {
  auto lease_it = leases_.find(machine);
  if (lease_it == leases_.end()) return;
  LeaseTable& table = lease_it->second;
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it == table.by_ctx.end()) return;
  auto server = servers_.find(machine);
  if (server == servers_.end()) return;
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  const SimTime now = transport_.simulator().now();
  Tracer& tracer = transport_.tracer();
  // Promises answered under the current epoch are still good (e.g. an
  // anti-entropy sweep with no rebind since the grant); older ones are
  // void, and the unexpired among them are owed a push.
  auto voided = [epoch](const LeaseRecord& r) { return r.epoch < epoch; };
  std::vector<LeaseRecord>& records = ctx_it->second;
  for (const LeaseRecord& record : records) {
    if (!voided(record) || record.expires <= now) continue;
    // Callback push. The rebind time lets the holder measure the
    // staleness window this push closed. Subject to loss/partition like
    // all traffic — the lease term itself is the holder's fallback bound.
    invalidates_pushed_->inc();
    tracer.record(now, EventKind::kInvalidate, 0, ctx.value(), epoch);
    (void)transport_.send(
        server->second.endpoint, record.holder,
        encode_invalidate(Invalidate{record.id, ctx, epoch, now}));
  }
  table.count -= std::erase_if(records, voided);
  if (records.empty()) table.by_ctx.erase(ctx_it);
}

void NameService::drop_leases(MachineId machine, EntityId ctx) {
  auto lease_it = leases_.find(machine);
  if (lease_it == leases_.end()) return;
  LeaseTable& table = lease_it->second;
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it == table.by_ctx.end()) return;
  table.count -= ctx_it->second.size();
  table.by_ctx.erase(ctx_it);
}

void NameService::open_migration_intake(MachineId target,
                                        const std::vector<EntityId>& ctxs,
                                        Intake kind) {
  auto& allowed = intake_[target];
  for (EntityId ctx : ctxs) allowed.push_back(IntakeContext{ctx, kind});
  // kFullCopy sorts first, so a context listed under both kinds keeps
  // full copies.
  std::sort(allowed.begin(), allowed.end(),
            [](const IntakeContext& a, const IntakeContext& b) {
              return std::tie(a.ctx, a.kind) < std::tie(b.ctx, b.kind);
            });
  allowed.erase(std::unique(allowed.begin(), allowed.end(),
                            [](const IntakeContext& a, const IntakeContext& b) {
                              return a.ctx == b.ctx;
                            }),
                allowed.end());
}

void NameService::close_migration_intake(MachineId target) {
  intake_.erase(target);
}

bool NameService::push_snapshot(EntityId ctx, MachineId to) {
  if (!graph_.is_context_object(ctx)) return false;
  auto replicas = homes_.replicas_of(ctx);
  if (replicas.empty()) return false;
  auto origin = live_server(replicas.front());
  auto target = live_server(to);
  if (!origin || !target) return false;
  // Same full-snapshot layout as publish_update — the receiver cannot
  // tell a migration copy from a replication push, which is the point:
  // apply-if-newer makes loss and reordering harmless either way.
  migration_pushes_->inc();
  return send_snapshot(*origin, *target, ctx);
}

bool NameService::send_snapshot(const LiveServer& from, const LiveServer& to,
                                EntityId ctx) {
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  transport_.tracer().record(transport_.simulator().now(),
                             EventKind::kUpdatePush, 0, ctx.value(), epoch);
  return transport_
      .send(from.endpoint, relativize(to.location, from.location),
            encode_update_push(ctx, epoch, graph_.context(ctx).bindings()))
      .is_ok();
}

void NameService::install_forwarding(ShardId from_shard,
                                     const std::vector<EntityId>& ctxs,
                                     SimTime expires) {
  auto machines = homes_.shard_replicas(from_shard);
  if (machines.empty() || ctxs.empty()) return;
  auto sorted = std::make_shared<std::vector<EntityId>>(ctxs);
  std::sort(sorted->begin(), sorted->end());
  for (MachineId m : machines) {
    forwarding_[m].push_back(ForwardingWindow{sorted, expires});
  }
  transport_.simulator().schedule_at(expires, [this] { purge_forwarding(); });
}

void NameService::purge_forwarding() {
  const SimTime now = transport_.simulator().now();
  for (auto it = forwarding_.begin(); it != forwarding_.end();) {
    std::erase_if(it->second, [now](const ForwardingWindow& w) {
      return w.expires <= now;
    });
    it = it->second.empty() ? forwarding_.erase(it) : std::next(it);
  }
}

std::size_t NameService::forwarding_count(MachineId machine) const {
  auto it = forwarding_.find(machine);
  if (it == forwarding_.end()) return 0;
  const SimTime now = transport_.simulator().now();
  std::vector<EntityId> live;
  for (const ForwardingWindow& w : it->second) {
    if (w.expires <= now) continue;
    live.insert(live.end(), w.ctxs->begin(), w.ctxs->end());
  }
  std::sort(live.begin(), live.end());
  return static_cast<std::size_t>(
      std::unique(live.begin(), live.end()) - live.begin());
}

void NameService::track_subtree_loads(const NamingGraph& graph,
                                      const std::vector<EntityId>& roots) {
  MetricsRegistry& metrics = transport_.metrics();
  for (EntityId root : roots) {
    if (!graph.is_context_object(root)) continue;
    const auto slot = static_cast<std::uint32_t>(subtree_hits_.size());
    subtree_hits_.push_back(&metrics.counter(
        "ns.server.subtree." + std::to_string(root.value()) + ".hits"));
    // Claim the subtree for this slot; first registration wins, so
    // overlapping roots attribute shared contexts to the earlier one.
    std::deque<EntityId> frontier{root};
    auto claim = [&](EntityId ctx) {
      if (ctx.value() >= subtree_slot_.size()) {
        subtree_slot_.resize(ctx.value() + 1, kNoSlot);
      }
      if (subtree_slot_[ctx.value()] != kNoSlot) return false;
      subtree_slot_[ctx.value()] = slot;
      return true;
    };
    if (!claim(root)) continue;
    while (!frontier.empty()) {
      EntityId ctx = frontier.front();
      frontier.pop_front();
      for (const auto& [name, target] : graph.context(ctx).bindings()) {
        if (name.is_cwd() || name.is_parent()) continue;
        if (!graph.is_context_object(target)) continue;
        if (claim(target)) frontier.push_back(target);
      }
    }
  }
}

EndpointId NameService::add_server(MachineId machine) {
  NAMECOH_CHECK(!servers_.contains(machine),
                "machine already has a name server");
  const EndpointId endpoint = net_.add_endpoint(machine, "nameserver");
  // Per-machine load signals for the rebalance planner: requests served
  // and FIFO queue-wait ticks (docs/REBALANCING.md, "Planner signals").
  MetricsRegistry& metrics = transport_.metrics();
  const std::string mprefix =
      "ns.server.m" + std::to_string(machine.value()) + ".";
  // The handler holds the record itself: map nodes never move, and
  // remove_server clears the handler before it erases the record.
  Server& server = servers_[machine];
  server = Server{endpoint, &metrics.counter(mprefix + "served"),
                  &metrics.counter(mprefix + "wait_ticks")};
  transport_.set_handler(
      endpoint, [this, &server](EndpointId self, const Message& message) {
        if (message.type == NsWire::kUpdatePush) {
          handle_update(self, message);
          return;
        }
        server.served->inc();
        if (service_time_ == 0) {
          handle_request(self, message);
          return;
        }
        // Service-time model: one FIFO server per machine. The request
        // waits behind everything already queued, occupies the server for
        // service_time_ ticks, and replies at completion — so a hot
        // authority's latency grows with its queue and sharding the
        // namespace buys real throughput.
        Simulator& sim = transport_.simulator();
        const SimTime begin = std::max(server.busy_until, sim.now());
        server.busy_until = begin + service_time_;
        server.wait_ticks->inc(begin - sim.now());
        sim.schedule_in(server.busy_until - sim.now(),
                        [this, self, message] {
                          handle_request(self, message);
                        });
      });
  return endpoint;
}

void NameService::remove_server(MachineId machine) {
  auto it = servers_.find(machine);
  if (it == servers_.end()) return;
  transport_.clear_handler(it->second.endpoint);
  // not_found only means the endpoint is already gone, as wanted here.
  (void)net_.remove_endpoint(it->second.endpoint);
  // The departed server can honor no promise and answer no straggler: its
  // record (and with it the FIFO horizon, so a re-added server starts
  // idle), its lease table and its forwarding tombstones go with it.
  servers_.erase(it);
  leases_.erase(machine);
  forwarding_.erase(machine);
}

void NameService::set_service_time(SimDuration per_request) {
  service_time_ = per_request;
}

Result<EndpointId> NameService::server_on(MachineId machine) const {
  auto it = servers_.find(machine);
  if (it == servers_.end()) {
    return unreachable_error("no name server on machine");
  }
  return it->second.endpoint;
}

void NameService::publish_update(EntityId ctx) {
  if (!graph_.is_context_object(ctx)) return;
  auto replicas = homes_.replicas_of(ctx);
  if (replicas.empty()) return;
  // Callback promises void first. Invalidations go out from *every*
  // machine holding promises on this context, not just the current
  // primary: after a delegation migrates the context to another shard,
  // the old authority still owes kInvalidate pushes for the leases it
  // granted — routing only through the new primary would strand them.
  // Collect holders first; delivery is scheduled, so no table mutates
  // under this iteration.
  std::vector<MachineId> holders;
  for (const auto& [machine, table] : leases_) {
    if (table.by_ctx.contains(ctx)) holders.push_back(machine);
  }
  for (MachineId machine : holders) push_invalidations(machine, ctx);
  if (replicas.size() < 2) return;
  auto primary = live_server(replicas.front());
  if (!primary) {
    // The publish was owed but cannot go out; remember the debt so a
    // later anti-entropy round retries once the primary is back.
    ae_dirty_.insert(ctx);
    return;
  }
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  bool lagging = false;
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    // Epoch gate (the snapshot-storm fix): a secondary whose applied
    // epoch already matches the primary's has the current snapshot —
    // re-pushing it is pure waste, O(contexts × replicas × bindings) of
    // it under the old per-tick full sweep.
    auto applied = replica_epoch(replicas[i], ctx);
    if (applied && *applied >= epoch) {
      pushes_suppressed_->inc();
      continue;
    }
    lagging = true;
    auto secondary = live_server(replicas[i]);
    if (!secondary) continue;
    // Full-snapshot push. Snapshots rather than deltas keep the apply
    // idempotent — any newer snapshot supersedes the store wholesale, so
    // loss and reordering can delay convergence but never corrupt it.
    update_pushes_->inc();
    (void)send_snapshot(*primary, *secondary, ctx);
  }
  // Dirty while any secondary lags (it may need a re-push: the snapshot
  // just sent rides the same lossy network as everything else); clean the
  // moment every secondary is current, so quiescent contexts cost
  // anti-entropy nothing.
  if (lagging) {
    ae_dirty_.insert(ctx);
  } else {
    ae_dirty_.erase(ctx);
  }
}

void NameService::start_anti_entropy(SimDuration interval) {
  NAMECOH_CHECK(interval > 0, "anti-entropy interval must be positive");
  anti_entropy_interval_ = interval;
  // One full sweep per (re)start seeds the dirty set with rebinds that
  // predate it (e.g. everything that happened before anti-entropy was
  // switched on); later rounds iterate only the dirty set.
  ae_sweep_pending_ = true;
  // Generation-stamp the scheduled round: bumping the generation orphans
  // any round already in the queue, so a restart re-times the next round
  // to the *new* interval now instead of after one more old-interval
  // round.
  const std::uint64_t gen = ++ae_gen_;
  transport_.simulator().schedule_in(interval,
                                     [this, gen] { anti_entropy_tick(gen); });
}

void NameService::stop_anti_entropy() {
  anti_entropy_interval_ = 0;
  ++ae_gen_;
}

void NameService::anti_entropy_tick(std::uint64_t gen) {
  if (gen != ae_gen_ || anti_entropy_interval_ == 0) return;  // stale round
  if (ae_sweep_pending_) {
    ae_sweep_pending_ = false;
    for (EntityId ctx : homes_.replicated_contexts()) publish_update(ctx);
  } else {
    // publish_update inserts into and erases from ae_dirty_; iterate a
    // copy so the round sees a stable set.
    const std::vector<EntityId> dirty(ae_dirty_.begin(), ae_dirty_.end());
    for (EntityId ctx : dirty) publish_update(ctx);
  }
  transport_.simulator().schedule_in(anti_entropy_interval_,
                                     [this, gen] { anti_entropy_tick(gen); });
}

void NameService::maybe_clean(EntityId ctx) {
  if (!ae_dirty_.contains(ctx)) return;
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  auto replicas = homes_.replicas_of(ctx);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    auto applied = replica_epoch(replicas[i], ctx);
    if (!applied || *applied < epoch) return;
  }
  ae_dirty_.erase(ctx);
}

std::optional<std::uint64_t> NameService::replica_epoch(MachineId machine,
                                                        EntityId ctx) const {
  const ReplicaEntry* entry = find(machine, ctx);
  if (entry == nullptr) return std::nullopt;
  return entry->epoch;
}

const NameService::ReplicaEntry* NameService::find(MachineId machine,
                                                   EntityId ctx) const {
  if (ctx.value() >= store_head_.size()) return nullptr;
  for (std::uint32_t i = store_head_[ctx.value()]; i != kNoEntry;
       i = store_entries_[i].next) {
    if (store_entries_[i].machine == machine) return &store_entries_[i];
  }
  return nullptr;
}

std::pair<NameService::ReplicaEntry*, bool> NameService::find_or_add(
    MachineId machine, EntityId ctx) {
  if (ctx.value() >= store_head_.size()) {
    store_head_.resize(std::max<std::size_t>(graph_.entity_count(),
                                             ctx.value() + 1),
                       kNoEntry);
  }
  std::uint32_t& head = store_head_[ctx.value()];
  for (std::uint32_t i = head; i != kNoEntry; i = store_entries_[i].next) {
    if (store_entries_[i].machine == machine) {
      return {&store_entries_[i], false};
    }
  }
  NAMECOH_CHECK(store_entries_.size() < kNoEntry, "replica table is full");
  store_entries_.push_back(ReplicaEntry{machine, head, false, 0, {}});
  head = static_cast<std::uint32_t>(store_entries_.size() - 1);
  return {&store_entries_.back(), true};
}

bool NameService::note_duplicate(std::uint64_t corr) {
  if (!recent_corr_.insert(corr).second) return true;
  recent_corr_order_.push_back(corr);
  if (recent_corr_order_.size() > kDuplicateWindow) {
    recent_corr_.erase(recent_corr_order_.front());
    recent_corr_order_.pop_front();
  }
  return false;
}

std::optional<NameService::Intake> NameService::intake_of(
    MachineId machine, EntityId ctx) const {
  // A secondary for this context applies pushes whole — and so does a
  // migration target with an open intake for it, unless that intake is
  // epoch-only (the copy phase fills the store *before* the cutover makes
  // the machine authoritative; docs/REBALANCING.md). Anything else — e.g. a
  // push delayed across a replica-set change — is a stray.
  if (homes_.is_replica(ctx, machine) && !homes_.is_primary(ctx, machine)) {
    return Intake::kFullCopy;
  }
  auto open = intake_.find(machine);
  if (open == intake_.end()) return std::nullopt;
  auto it = std::lower_bound(
      open->second.begin(), open->second.end(), ctx,
      [](const IntakeContext& c, EntityId id) { return c.ctx < id; });
  if (it == open->second.end() || it->ctx != ctx) return std::nullopt;
  return it->kind;
}

void NameService::handle_update(EndpointId self, const Message& message) {
  // The head alone decides whether this server takes the push at all.
  const std::optional<UpdateHead> head = decode_update_head(message);
  if (!head) return;
  const EntityId ctx = head->ctx;
  const std::uint64_t epoch = head->epoch;
  auto my_machine = net_.machine_of(self);
  if (!my_machine.is_ok()) return;
  const MachineId machine = my_machine.value();
  const std::optional<Intake> intake = intake_of(machine, ctx);
  if (!intake) return;
  // A malformed push applies nothing rather than half a snapshot. An
  // epoch-only intake checks the frame as strictly but builds nothing, so
  // no name of it is interned.
  const bool epoch_only = *intake == Intake::kEpochOnly;
  std::vector<Binding> bindings;
  if (epoch_only) {
    if (!validate_update_push(message)) return;
  } else {
    std::optional<UpdatePush> push = decode_update_push(message);
    if (!push) return;
    bindings = std::move(push->bindings);
  }
  Tracer& tracer = transport_.tracer();
  const SimTime now = transport_.simulator().now();
  auto [entry, fresh] = find_or_add(machine, ctx);
  // Apply-if-newer: re-deliveries and reordered pushes of an older
  // snapshot must never roll the store backwards. At an equal epoch only
  // a full snapshot filling an epoch-only entry applies: both are of the
  // same graph state, and only the full one can be served.
  const bool fills = epoch == entry->epoch && entry->epoch_only && !epoch_only;
  if (!fresh && epoch <= entry->epoch && !fills) {
    updates_stale_->inc();
    tracer.record(now, EventKind::kUpdateStale, 0, ctx.value(), epoch);
    return;
  }
  entry->epoch = epoch;
  entry->epoch_only = epoch_only;
  // Move-assigning frees what the entry held; clear() would keep the
  // capacity, and with it every byte of an epoch-only entry's old copy.
  entry->bindings = std::move(bindings);
  updates_applied_->inc();
  tracer.record(now, EventKind::kUpdateApply, 0, ctx.value(), epoch);
  // A secondary's lease state (if it ever granted any) is superseded by
  // the snapshot: the primary owns invalidation, so stale local promises
  // are dropped rather than pushed.
  drop_leases(machine, ctx);
  // This apply may have been the last laggard; keep the dirty set tight.
  maybe_clean(ctx);
}

std::optional<NameService::LiveServer> NameService::live_server(
    MachineId machine) const {
  auto it = servers_.find(machine);
  if (it == servers_.end()) return std::nullopt;
  auto loc = net_.location_of(it->second.endpoint);
  if (!loc.is_ok()) return std::nullopt;
  return LiveServer{it->second.endpoint, loc.value()};
}

void NameService::handle_request(EndpointId self, const Message& message) {
  std::optional<Inbound> in = admit(self, message);
  if (!in) return;  // not ours / malformed, or this server is gone
  std::optional<CompoundName> parsed;
  NameSlice components;
  if (!in->request.path.empty()) {
    // Decode = intern: the text entered this node here; from now on the
    // walk is all atom compares.
    auto result = CompoundName::parse_relative(in->request.path);
    if (!result.is_ok()) {
      send_error(*in, result.status().to_string());
      return;
    }
    parsed = std::move(result).value();
    components = parsed->slice();
  }
  const EntityId start = in->request.start;
  // Zero components resolve to the start entity itself (the identity
  // resolution). This case must answer explicitly: falling through the
  // walk loop without a reply would strand the client through every retry
  // and surface as a bogus "message lost" error.
  if (components.empty()) {
    if (!graph_.contains(start)) {
      send_error(*in, "unknown start entity in empty-path request");
      return;
    }
    in->count(answers_);
    send_reply(*in, NsWire::kAnswer, start, "", "", start);
    return;
  }
  walk(*in, start, components);
}

std::optional<NameService::Inbound> NameService::admit(
    EndpointId self, const Message& message) {
  std::optional<ResolveRequest> request = decode_resolve_request(message);
  if (!request) return std::nullopt;
  const std::uint64_t corr = request->corr;
  const EntityId start = request->start;
  Tracer& tracer = transport_.tracer();
  const SimTime now = transport_.simulator().now();
  // At-most-once accounting: a retransmission (same correlation id within
  // the window) is still answered — the original reply may have been lost —
  // but must not count as a second resolution in the stats.
  const bool duplicate = note_duplicate(corr);
  if (duplicate) {
    duplicates_->inc();
    tracer.record(now, EventKind::kServerDuplicate, corr, self.value());
  } else {
    requests_received_->inc();
  }
  tracer.record(now, EventKind::kServerHandle, corr, self.value(),
                start.value());
  auto my_machine = net_.machine_of(self);
  if (!my_machine.is_ok()) return std::nullopt;
  auto my_loc = net_.location_of(self);
  if (!my_loc.is_ok()) return std::nullopt;
  // Subtree load attribution (track_subtree_loads): charge the request to
  // the registered subtree its *start* context belongs to.
  if (!duplicate && start.valid() && start.value() < subtree_slot_.size()) {
    const std::uint32_t slot = subtree_slot_[start.value()];
    if (slot != kNoSlot) subtree_hits_[slot]->inc();
  }
  return Inbound{self,          message,        std::move(*request),
                 my_machine.value(), my_loc.value(), duplicate};
}

void NameService::walk(const Inbound& in, EntityId ctx, NameSlice components) {
  // Walk while the current context is replicated here; refer onward
  // otherwise. The primary serves straight from the naming graph; a
  // secondary serves from the last snapshot it applied (stamping the
  // snapshot's epoch), or refers to the primary if it never synced.
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!graph_.is_context_object(ctx)) {
      send_error(in, "NOT_A_CONTEXT at '" + components[i].text() + "'");
      return;
    }
    auto replicas = homes_.replicas_of(ctx);
    if (replicas.empty()) {
      send_error(in, "context has no authoritative home");
      return;
    }
    const bool here = homes_.is_replica(ctx, in.machine);
    const bool primary = here && homes_.is_primary(ctx, in.machine);
    const ReplicaEntry* state =
        here && !primary ? find(in.machine, ctx) : nullptr;
    if (!primary && (state == nullptr || state->epoch_only)) {
      // Not served here, or a secondary that never synced — an epoch-only
      // entry holds no bindings, so it counts as never synced: answering
      // from nothing would turn "no snapshot yet" into a spurious
      // NOT_FOUND.
      if (!here) note_forwarded(in, ctx);
      refer_to_primary(in, ctx, replicas.front(), components.subslice(i));
      return;
    }
    const Result<EntityId> next = primary
                                      ? graph_.lookup(ctx, components[i])
                                      : read_store(state->bindings,
                                                   components[i]);
    const std::optional<std::uint64_t> store_epoch =
        primary ? std::nullopt : std::optional(state->epoch);
    const bool last = i + 1 == components.size();
    if (next.is_ok() && !last) {
      ctx = next.value();
      continue;
    }
    if (store_epoch) {
      in.count(store_answers_);
      transport_.tracer().record(transport_.simulator().now(),
                                 EventKind::kStoreAnswer, in.request.corr,
                                 ctx.value(), *store_epoch);
    }
    if (!next.is_ok()) {
      // Stamp the context where the lookup failed so negative cache
      // entries are invalidated when it is rebound.
      send_error(in, next.status().to_string(), ctx, store_epoch);
      return;
    }
    in.count(answers_);
    send_reply(in, NsWire::kAnswer, next.value(), "", "", ctx, store_epoch);
    return;
  }
  // Defensive: every branch above replies. Never exit silently — silence
  // costs the client its full retry budget.
  send_error(in, "internal: request fell through the resolution walk");
}

void NameService::note_forwarded(const Inbound& in, EntityId ctx) {
  // Forwarding window (docs/REBALANCING.md): this server owned `ctx` until
  // a recent cutover. The referral that follows already points at the new
  // owner (the shared authority map was rewritten at cutover, and glue
  // rides along) — the tombstone just makes the window observable and
  // bounded.
  auto held = forwarding_.find(in.machine);
  if (held == forwarding_.end()) return;
  const SimTime now = transport_.simulator().now();
  const bool open = std::any_of(
      held->second.begin(), held->second.end(),
      [&](const ForwardingWindow& w) {
        return w.expires > now &&
               std::binary_search(w.ctxs->begin(), w.ctxs->end(), ctx);
      });
  if (!open) return;
  in.count(forwarded_);
  const ShardId owner = homes_.shard_of(ctx);
  transport_.tracer().record(now, EventKind::kForwarded, in.request.corr,
                             ctx.value(),
                             owner == AuthorityMap::kNoShard ? 0 : owner);
}

void NameService::refer_to_primary(const Inbound& in, EntityId ctx,
                                   MachineId primary, NameSlice rest) {
  // The primary must have a live server: it heads the reply's replica
  // list, which is where the client goes next.
  if (!live_server(primary)) {
    send_error(in, "authoritative machine has no name server");
    return;
  }
  in.count(referrals_);
  send_reply(in, NsWire::kReferral, ctx, rest.joined(), "", ctx);
}

void NameService::send_error(const Inbound& in, std::string error,
                             EntityId authority,
                             std::optional<std::uint64_t> epoch) {
  in.count(failures_);
  send_reply(in, NsWire::kError, {}, "", std::move(error), authority, epoch);
}

void NameService::send_reply(const Inbound& in, std::uint64_t disposition,
                             EntityId entity, std::string remaining,
                             std::string error, EntityId authority,
                             std::optional<std::uint64_t> epoch) {
  // Every reply names the authority's live replica servers, primary
  // first — so clients can fail over, and a referral's first entry is its
  // target. All pids are in *this server's* context; the transport rebases
  // them into the receiver's context in flight (R(sender)). `authority` is
  // the context whose bindings the reply depends on; the epoch stamped is
  // the graph's current rebind epoch, or — when a secondary answered from
  // its replica store — the *snapshot's* epoch, so staleness is visible.
  const std::uint64_t corr = in.request.corr;
  const EventKind kind = disposition == NsWire::kAnswer
                             ? EventKind::kServerAnswer
                             : disposition == NsWire::kReferral
                                   ? EventKind::kServerReferral
                                   : EventKind::kServerError;
  transport_.tracer().record(transport_.simulator().now(), kind, corr,
                             in.self.value(),
                             entity.valid() ? entity.value() : 0);
  ResolveReply reply;
  reply.corr = corr;
  reply.disposition = disposition;
  reply.entity = entity;
  reply.remaining = std::move(remaining);
  reply.error = std::move(error);
  const bool stamp = authority.valid() && graph_.is_context_object(authority);
  if (stamp) {
    reply.authority = authority;
    reply.epoch = epoch ? *epoch : graph_.rebind_epoch(authority);
    for (MachineId m : homes_.replicas_of(authority)) {
      if (auto server = live_server(m)) {
        reply.replicas.push_back(
            WireServer{relativize(server->location, in.location), m});
      }
    }
  }
  // Only the primary grants — it is where invalidations originate, so a
  // secondary's promise could never be kept. Referrals carry no binding
  // to promise about.
  if ((in.request.flags & NsWire::kFlagLeaseRequested) != 0 && stamp &&
      disposition != NsWire::kReferral &&
      homes_.is_primary(authority, in.machine)) {
    std::tie(reply.lease_duration, reply.lease_id) = grant_lease(
        in.machine, authority, in.message.reply_to, reply.epoch, corr);
  }
  // Glue (docs/SHARDING.md): a referral names the shard owning the
  // referred context, so a shard-routing client learns that shard's
  // route (the reply's replica list) in the same round trip.
  if (disposition == NsWire::kReferral) {
    reply.shard = homes_.shard_of(authority);
  }
  (void)transport_.send(in.self, in.message.reply_to,
                        encode_resolve_reply(reply));
}

}  // namespace namecoh

#include "ns/name_service.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "ns/membership.hpp"
#include "util/strings.hpp"

namespace namecoh {

std::optional<NameSlice> referral_suffix(NameSlice sent,
                                         std::string_view remaining) {
  if (remaining.empty()) return sent.subslice(sent.size());
  // Count components first so the candidate suffix is known before any
  // text is compared.
  std::size_t count = 1;
  for (char c : remaining) {
    if (c == '/') ++count;
  }
  if (count > sent.size()) return std::nullopt;
  const NameSlice candidate = sent.subslice(sent.size() - count);
  std::size_t start = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slash = remaining.find('/', start);
    const std::string_view piece =
        slash == std::string_view::npos
            ? remaining.substr(start)
            : remaining.substr(start, slash - start);
    if (piece != candidate[i].text()) return std::nullopt;
    start = slash + 1;
  }
  return candidate;
}

NameService::NameService(const NamingGraph& graph, Internetwork& net,
                         Transport& transport, const AuthorityMap& homes)
    : graph_(graph), net_(net), transport_(transport), homes_(homes) {
  MetricsRegistry& metrics = transport_.metrics();
  requests_ = &metrics.counter("ns.server.requests");
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
  return it == leases_.end() ? 0 : it->second.by_id.size();
}

void NameService::erase_lease(LeaseTable& table, std::uint64_t id) {
  auto it = table.by_id.find(id);
  if (it == table.by_id.end()) return;
  auto ctx_it = table.by_ctx.find(it->second.ctx);
  if (ctx_it != table.by_ctx.end()) {
    auto& ids = ctx_it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) table.by_ctx.erase(ctx_it);
  }
  table.by_id.erase(it);
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
    for (std::uint64_t id : ctx_it->second) {
      LeaseRecord& record = table.by_id.at(id);
      if (record.holder == holder) {
        record.expires = now + lease_duration_;
        record.epoch = epoch;
        lease_renewals_->inc();
        transport_.tracer().record(now, EventKind::kLeaseGrant, corr,
                                   ctx.value(), id);
        return {lease_duration_, id};
      }
    }
  }
  if (lease_capacity_ > 0 && table.by_id.size() >= lease_capacity_) {
    // Purge lapsed promises first; a table genuinely full of *unexpired*
    // leases grants nothing — breaking an outstanding promise silently
    // would forfeit the coherence the lease bought.
    std::vector<std::uint64_t> lapsed;
    for (const auto& [id, record] : table.by_id) {
      if (record.expires <= now) lapsed.push_back(id);
    }
    for (std::uint64_t id : lapsed) erase_lease(table, id);
    if (table.by_id.size() >= lease_capacity_) {
      lease_table_full_->inc();
      return {0, 0};
    }
  }
  const std::uint64_t id = next_lease_id_++;
  LeaseRecord record;
  record.id = id;
  record.ctx = ctx;
  record.holder = holder;
  record.expires = now + lease_duration_;
  record.epoch = epoch;
  table.by_id.emplace(id, record);
  table.by_ctx[ctx].push_back(id);
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
  std::vector<std::uint64_t> voided;
  for (std::uint64_t id : ctx_it->second) {
    const LeaseRecord& record = table.by_id.at(id);
    // Promises answered under the current epoch are still good (e.g. an
    // anti-entropy sweep with no rebind since the grant).
    if (record.epoch >= epoch) continue;
    voided.push_back(id);
    if (record.expires <= now) continue;  // lapsed on its own: no push owed
    // Callback push. The rebind time lets the holder measure the
    // staleness window this push closed. Subject to loss/partition like
    // all traffic — the lease term itself is the holder's fallback bound.
    invalidates_pushed_->inc();
    tracer.record(now, EventKind::kInvalidate, 0, ctx.value(), epoch);
    (void)transport_.send(server->second, record.holder,
                          encode_invalidate(Invalidate{id, ctx, epoch, now}));
  }
  for (std::uint64_t id : voided) erase_lease(table, id);
}

void NameService::drop_leases(MachineId machine, EntityId ctx) {
  auto lease_it = leases_.find(machine);
  if (lease_it == leases_.end()) return;
  LeaseTable& table = lease_it->second;
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it == table.by_ctx.end()) return;
  std::vector<std::uint64_t> ids = ctx_it->second;
  for (std::uint64_t id : ids) erase_lease(table, id);
}

void NameService::open_migration_intake(MachineId target,
                                        const std::vector<EntityId>& ctxs) {
  auto& allowed = intake_[target];
  allowed.insert(allowed.end(), ctxs.begin(), ctxs.end());
  std::sort(allowed.begin(), allowed.end());
  allowed.erase(std::unique(allowed.begin(), allowed.end()), allowed.end());
}

void NameService::close_migration_intake(MachineId target) {
  intake_.erase(target);
}

bool NameService::push_snapshot(EntityId ctx, MachineId to) {
  if (!graph_.is_context_object(ctx)) return false;
  auto replicas = homes_.replicas_of(ctx);
  if (replicas.empty()) return false;
  auto origin = servers_.find(replicas.front());
  if (origin == servers_.end()) return false;
  auto origin_loc = net_.location_of(origin->second);
  if (!origin_loc.is_ok()) return false;
  auto target = servers_.find(to);
  if (target == servers_.end()) return false;
  auto target_loc = net_.location_of(target->second);
  if (!target_loc.is_ok()) return false;
  // Same full-snapshot layout as publish_update — the receiver cannot
  // tell a migration copy from a replication push, which is the point:
  // apply-if-newer makes loss and reordering harmless either way.
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  migration_pushes_->inc();
  transport_.tracer().record(transport_.simulator().now(),
                             EventKind::kUpdatePush, 0, ctx.value(), epoch);
  return transport_
      .send(origin->second,
            relativize(target_loc.value(), origin_loc.value()),
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
  EndpointId server = net_.add_endpoint(machine, "nameserver");
  servers_[machine] = server;
  // Per-machine load signals for the rebalance planner: requests served
  // and FIFO queue-wait ticks (docs/REBALANCING.md, "Planner signals").
  MetricsRegistry& metrics = transport_.metrics();
  const std::string mprefix =
      "ns.server.m" + std::to_string(machine.value()) + ".";
  load_[machine] = MachineLoad{&metrics.counter(mprefix + "served"),
                               &metrics.counter(mprefix + "wait_ticks")};
  transport_.set_handler(
      server, [this, machine](EndpointId self, const Message& message) {
        if (message.type == NsWire::kUpdatePush) {
          handle_update(self, message);
          return;
        }
        const MachineLoad& load = load_.at(machine);
        if (service_time_ == 0) {
          load.served->inc();
          handle_request(self, message);
          return;
        }
        // Service-time model: one FIFO server per machine. The request
        // waits behind everything already queued, occupies the server for
        // service_time_ ticks, and replies at completion — so a hot
        // authority's latency grows with its queue and sharding the
        // namespace buys real throughput.
        Simulator& sim = transport_.simulator();
        SimTime& busy = busy_until_[machine];
        const SimTime begin = std::max(busy, sim.now());
        busy = begin + service_time_;
        load.served->inc();
        load.wait_ticks->inc(begin - sim.now());
        sim.schedule_in(busy - sim.now(), [this, self, message] {
          handle_request(self, message);
        });
      });
  return server;
}

void NameService::remove_server(MachineId machine) {
  auto it = servers_.find(machine);
  if (it == servers_.end()) return;
  transport_.clear_handler(it->second);
  // not_found only means the endpoint is already gone, as wanted here.
  (void)net_.remove_endpoint(it->second);
  servers_.erase(it);
  // The departed server can honor no promise and answer no straggler:
  // its lease table and forwarding tombstones go with it. busy_until_ is
  // reset so a re-added server starts with an empty FIFO.
  leases_.erase(machine);
  forwarding_.erase(machine);
  busy_until_.erase(machine);
}

void NameService::set_service_time(SimDuration per_request) {
  service_time_ = per_request;
}

Result<EndpointId> NameService::server_on(MachineId machine) const {
  auto it = servers_.find(machine);
  if (it == servers_.end()) {
    return unreachable_error("no name server on machine");
  }
  return it->second;
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
  auto primary = servers_.find(replicas.front());
  if (primary == servers_.end() || !net_.location_of(primary->second).is_ok()) {
    // The publish was owed but cannot go out; remember the debt so a
    // later anti-entropy round retries once the primary is back.
    ae_dirty_.insert(ctx);
    return;
  }
  auto primary_loc = net_.location_of(primary->second);
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  const auto bindings = graph_.context(ctx).bindings();
  Tracer& tracer = transport_.tracer();
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
    auto secondary = servers_.find(replicas[i]);
    if (secondary == servers_.end()) continue;
    auto secondary_loc = net_.location_of(secondary->second);
    if (!secondary_loc.is_ok()) continue;
    // Full-snapshot push. Snapshots rather than deltas keep the apply
    // idempotent — any newer snapshot supersedes the store wholesale, so
    // loss and reordering can delay convergence but never corrupt it.
    update_pushes_->inc();
    tracer.record(transport_.simulator().now(), EventKind::kUpdatePush, 0,
                  ctx.value(), epoch);
    (void)transport_.send(
        primary->second,
        relativize(secondary_loc.value(), primary_loc.value()),
        encode_update_push(ctx, epoch, bindings));
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
  const ReplicaState* state = find(machine, ctx);
  if (state == nullptr) return std::nullopt;
  return state->epoch;
}

const NameService::ReplicaState* NameService::find(MachineId machine,
                                                   EntityId ctx) const {
  if (ctx.value() >= store_head_.size()) return nullptr;
  for (std::uint32_t i = store_head_[ctx.value()]; i != kNoEntry;
       i = store_entries_[i].next) {
    if (store_entries_[i].machine == machine) return &store_entries_[i].state;
  }
  return nullptr;
}

std::pair<NameService::ReplicaState*, bool> NameService::find_or_add(
    MachineId machine, EntityId ctx) {
  if (ctx.value() >= store_head_.size()) {
    store_head_.resize(std::max<std::size_t>(graph_.entity_count(),
                                             ctx.value() + 1),
                       kNoEntry);
  }
  std::uint32_t& head = store_head_[ctx.value()];
  for (std::uint32_t i = head; i != kNoEntry; i = store_entries_[i].next) {
    if (store_entries_[i].machine == machine) {
      return {&store_entries_[i].state, false};
    }
  }
  NAMECOH_CHECK(store_entries_.size() < kNoEntry, "replica table is full");
  store_entries_.push_back(ReplicaEntry{machine, head, ReplicaState{}});
  head = static_cast<std::uint32_t>(store_entries_.size() - 1);
  return {&store_entries_.back().state, true};
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

void NameService::handle_update(EndpointId self, const Message& message) {
  std::optional<UpdatePush> push = decode_update_push(message);
  if (!push) return;  // malformed: apply nothing rather than half a snapshot
  const EntityId ctx = push->ctx;
  const std::uint64_t epoch = push->epoch;
  auto my_machine = net_.machine_of(self);
  if (!my_machine.is_ok()) return;
  // Only a secondary for this context applies pushes — or a migration
  // target with an open intake for it (the copy phase fills the store
  // *before* the cutover makes the machine authoritative;
  // docs/REBALANCING.md). Anything else — e.g. a push delayed across a
  // replica-set change — is a stray.
  const bool secondary = homes_.is_replica(ctx, my_machine.value()) &&
                         !homes_.is_primary(ctx, my_machine.value());
  if (!secondary) {
    auto open = intake_.find(my_machine.value());
    if (open == intake_.end() ||
        !std::binary_search(open->second.begin(), open->second.end(), ctx)) {
      return;
    }
  }
  Tracer& tracer = transport_.tracer();
  const SimTime now = transport_.simulator().now();
  auto [state, fresh] = find_or_add(my_machine.value(), ctx);
  if (!fresh && epoch <= state->epoch) {
    // Apply-if-newer: re-deliveries and reordered pushes of an older
    // snapshot must never roll the store backwards.
    updates_stale_->inc();
    tracer.record(now, EventKind::kUpdateStale, 0, ctx.value(), epoch);
    return;
  }
  *state = ReplicaState{epoch, std::move(push->bindings)};
  updates_applied_->inc();
  tracer.record(now, EventKind::kUpdateApply, 0, ctx.value(), epoch);
  // A secondary's lease state (if it ever granted any) is superseded by
  // the snapshot: the primary owns invalidation, so stale local promises
  // are dropped rather than pushed.
  drop_leases(my_machine.value(), ctx);
  // This apply may have been the last laggard; keep the dirty set tight.
  maybe_clean(ctx);
}

void NameService::handle_request(EndpointId self, const Message& message) {
  const std::optional<ResolveRequest> request =
      decode_resolve_request(message);
  if (!request) return;  // not ours / malformed
  const std::uint64_t corr = request->corr;
  EntityId ctx = request->start;

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
    requests_->inc();
  }
  tracer.record(now, EventKind::kServerHandle, corr, self.value(),
                ctx.value());
  auto count = [&](Counter* counter) {
    if (!duplicate) counter->inc();
  };

  auto my_machine = net_.machine_of(self);
  if (!my_machine.is_ok()) return;
  auto my_loc = net_.location_of(self);
  if (!my_loc.is_ok()) return;

  // Subtree load attribution (track_subtree_loads): charge the request to
  // the registered subtree its *start* context belongs to, before the walk
  // advances `ctx`.
  if (!duplicate && ctx.valid() && ctx.value() < subtree_slot_.size()) {
    const std::uint32_t slot = subtree_slot_[ctx.value()];
    if (slot != kNoSlot) subtree_hits_[slot]->inc();
  }

  // Every reply names the authority's live replica servers, primary
  // first — so clients can fail over, and a referral's first entry is its
  // target. All pids are in *this server's* context; the transport rebases
  // them into the receiver's context in flight (R(sender)). `authority` is
  // the context whose bindings the reply depends on; the epoch stamped is
  // the graph's current rebind epoch, or — when a secondary answered from
  // its replica store — the *snapshot's* epoch, so staleness is visible.
  auto live_servers = [&](std::span<const MachineId> machines) {
    std::vector<WireServer> out;
    for (MachineId m : machines) {
      auto sit = servers_.find(m);
      if (sit == servers_.end()) continue;
      auto loc = net_.location_of(sit->second);
      if (!loc.is_ok()) continue;
      out.push_back(WireServer{relativize(loc.value(), my_loc.value()), m});
    }
    return out;
  };
  auto send_reply = [&](std::uint64_t disposition, EntityId entity,
                        std::string remaining, std::string error,
                        EntityId authority,
                        std::optional<std::uint64_t> epoch_override =
                            std::nullopt) {
    const EventKind kind = disposition == NsWire::kAnswer
                               ? EventKind::kServerAnswer
                               : disposition == NsWire::kReferral
                                     ? EventKind::kServerReferral
                                     : EventKind::kServerError;
    tracer.record(transport_.simulator().now(), kind, corr, self.value(),
                  entity.valid() ? entity.value() : 0);
    ResolveReply reply;
    reply.corr = corr;
    reply.disposition = disposition;
    reply.entity = entity;
    reply.remaining = std::move(remaining);
    reply.error = std::move(error);
    const bool stamp =
        authority.valid() && graph_.is_context_object(authority);
    if (stamp) {
      reply.authority = authority;
      reply.epoch = epoch_override ? *epoch_override
                                   : graph_.rebind_epoch(authority);
      reply.replicas = live_servers(homes_.replicas_of(authority));
    }
    // Only the primary grants — it is where invalidations originate, so a
    // secondary's promise could never be kept. Referrals carry no binding
    // to promise about.
    if ((request->flags & NsWire::kFlagLeaseRequested) != 0 && stamp &&
        disposition != NsWire::kReferral &&
        homes_.is_primary(authority, my_machine.value())) {
      std::tie(reply.lease_duration, reply.lease_id) =
          grant_lease(my_machine.value(), authority, message.reply_to,
                      reply.epoch, corr);
    }
    // Glue (docs/SHARDING.md): a referral names the shard owning the
    // referred context, so a shard-routing client learns that shard's
    // route (the reply's replica list) in the same round trip.
    if (disposition == NsWire::kReferral) {
      reply.shard = homes_.shard_of(authority);
    }
    (void)transport_.send(self, message.reply_to, encode_resolve_reply(reply));
  };
  auto send_error = [&](std::string error, EntityId authority = {},
                        std::optional<std::uint64_t> epoch_override =
                            std::nullopt) {
    count(failures_);
    send_reply(NsWire::kError, {}, "", std::move(error), authority,
               epoch_override);
  };

  std::optional<CompoundName> parsed;
  NameSlice components;
  if (!request->path.empty()) {
    // Decode = intern: the text entered this node here; from now on the
    // walk is all atom compares.
    auto result = CompoundName::parse_relative(request->path);
    if (!result.is_ok()) {
      send_error(result.status().to_string());
      return;
    }
    parsed = std::move(result).value();
    components = parsed->slice();
  }

  // Zero components resolve to the start entity itself (the identity
  // resolution). This case must answer explicitly: falling through the
  // walk loop without a reply would strand the client through every retry
  // and surface as a bogus "message lost" error.
  if (components.empty()) {
    if (!graph_.contains(ctx)) {
      send_error("unknown start entity in empty-path request");
      return;
    }
    count(answers_);
    send_reply(NsWire::kAnswer, ctx, "", "", ctx);
    return;
  }

  // Refer the client to the primary for `ctx` at component `i`. The
  // primary must have a live server: it heads the reply's replica list,
  // which is where the client goes next.
  auto refer_to_primary = [&](MachineId primary, std::size_t i) {
    auto next_server = server_on(primary);
    if (!next_server.is_ok()) {
      send_error("authoritative machine has no name server");
      return;
    }
    if (!net_.location_of(next_server.value()).is_ok()) {
      send_error("authoritative server endpoint is dead");
      return;
    }
    count(referrals_);
    send_reply(NsWire::kReferral, ctx, components.subslice(i).joined(), "",
               ctx);
  };

  // Walk while the current context is replicated here; refer onward
  // otherwise. The primary serves straight from the naming graph; a
  // secondary serves from the last snapshot it applied (stamping the
  // snapshot's epoch), or refers to the primary if it never synced.
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!graph_.is_context_object(ctx)) {
      send_error("NOT_A_CONTEXT at '" + components[i].text() + "'");
      return;
    }
    auto replicas = homes_.replicas_of(ctx);
    if (replicas.empty()) {
      send_error("context has no authoritative home");
      return;
    }
    if (!homes_.is_replica(ctx, my_machine.value())) {
      // Forwarding window (docs/REBALANCING.md): this server owned `ctx`
      // until a recent cutover. The referral below already points at the
      // new owner (the shared authority map was rewritten at cutover, and
      // glue rides along) — the tombstone just makes the window
      // observable and bounded.
      auto held = forwarding_.find(my_machine.value());
      if (held != forwarding_.end() &&
          std::any_of(held->second.begin(), held->second.end(),
                      [&](const ForwardingWindow& w) {
                        return w.expires > now &&
                               std::binary_search(w.ctxs->begin(),
                                                  w.ctxs->end(), ctx);
                      })) {
        count(forwarded_);
        const ShardId owner = homes_.shard_of(ctx);
        tracer.record(transport_.simulator().now(), EventKind::kForwarded,
                      corr, ctx.value(),
                      owner == AuthorityMap::kNoShard ? 0 : owner);
      }
      refer_to_primary(replicas.front(), i);
      return;
    }
    Result<EntityId> next = not_found_error("unresolved");
    std::optional<std::uint64_t> store_epoch;
    if (homes_.is_primary(ctx, my_machine.value())) {
      next = graph_.lookup(ctx, components[i]);
    } else {
      const ReplicaState* state = find(my_machine.value(), ctx);
      if (state == nullptr) {
        // Never synced: answering from nothing would turn "no snapshot
        // yet" into a spurious NOT_FOUND. Refer to the primary instead.
        refer_to_primary(replicas.front(), i);
        return;
      }
      store_epoch = state->epoch;
      auto hit = std::find_if(
          state->bindings.begin(), state->bindings.end(),
          [&](const Binding& b) { return b.name == components[i]; });
      // The error text crosses the wire; build it only on a miss.
      next = hit != state->bindings.end()
                 ? Result<EntityId>(hit->entity)
                 : not_found_error("NOT_FOUND: no binding for '" +
                                   components[i].text() + "'");
    }
    if (!next.is_ok()) {
      if (store_epoch) {
        count(store_answers_);
        tracer.record(transport_.simulator().now(), EventKind::kStoreAnswer,
                      corr, ctx.value(), *store_epoch);
      }
      // Stamp the context where the lookup failed so negative cache
      // entries are invalidated when it is rebound.
      send_error(next.status().to_string(), ctx, store_epoch);
      return;
    }
    if (i + 1 == components.size()) {
      count(answers_);
      if (store_epoch) {
        count(store_answers_);
        tracer.record(transport_.simulator().now(), EventKind::kStoreAnswer,
                      corr, ctx.value(), *store_epoch);
      }
      send_reply(NsWire::kAnswer, next.value(), "", "", ctx, store_epoch);
      return;
    }
    ctx = next.value();
  }
  // Defensive: every branch above replies. Never exit silently — silence
  // costs the client its full retry budget.
  send_error("internal: request fell through the resolution walk");
}

ResolverClient::ResolverClient(const NamingGraph& graph, Internetwork& net,
                               Transport& transport, Simulator& sim,
                               const NameService& service, MachineId machine,
                               std::string label,
                               ResolverClientConfig config)
    : graph_(graph),
      net_(net),
      transport_(transport),
      sim_(sim),
      service_(service),
      endpoint_(net.add_endpoint(machine, std::move(label))),
      config_(config),
      client_machine_(machine) {
  // Per-client counter names: several clients can share one transport (and
  // hence one registry), so the endpoint id keeps their metrics apart.
  MetricsRegistry& metrics = transport_.metrics();
  metrics_prefix_ = "ns.client." + std::to_string(endpoint_.value()) + ".";
  const std::string& prefix = metrics_prefix_;
  resolutions_ = &metrics.counter(prefix + "resolutions");
  messages_sent_ = &metrics.counter(prefix + "messages_sent");
  referrals_followed_ = &metrics.counter(prefix + "referrals_followed");
  cache_hits_ = &metrics.counter(prefix + "cache_hits");
  cache_misses_ = &metrics.counter(prefix + "cache_misses");
  failures_ = &metrics.counter(prefix + "failures");
  evictions_ = &metrics.counter(prefix + "evictions");
  negative_hits_ = &metrics.counter(prefix + "negative_hits");
  stale_epoch_drops_ = &metrics.counter(prefix + "stale_epoch_drops");
  timeouts_ = &metrics.counter(prefix + "timeouts");
  backoff_retries_ = &metrics.counter(prefix + "backoff_retries");
  stale_replies_dropped_ = &metrics.counter(prefix + "stale_replies_dropped");
  failovers_ = &metrics.counter(prefix + "failovers");
  coalesced_ = &metrics.counter(prefix + "coalesced");
  coalesce_rejected_ = &metrics.counter(prefix + "coalesce_rejected");
  invalidates_received_ = &metrics.counter(prefix + "invalidates_received");
  lease_renewals_ = &metrics.counter(prefix + "lease_renewals");
  lease_degrades_ = &metrics.counter(prefix + "lease_degrades");
  // Sharding counters are registry-wide ("ns.shard.*"), not per-client:
  // "how much referral traffic crossed shards" is a fabric question, and
  // thousands of bench clients sharing three counters beats thousands of
  // prefixed triples.
  delegations_chased_ = &metrics.counter("ns.shard.delegations_chased");
  glue_hits_ = &metrics.counter("ns.shard.glue_hits");
  cross_shard_hops_ = &metrics.counter("ns.shard.cross_shard_hops");
  route_reuses_ = &metrics.counter("ns.shard.route_reuses");
  // Membership counters are registry-wide too (docs/MEMBERSHIP.md).
  routes_healed_ = &metrics.counter("ns.member.routes_healed");
  dead_route_skips_ = &metrics.counter("ns.member.dead_route_skips");
  epochs_tracked_ = &metrics.gauge(prefix + "epochs_tracked");
  // Ticks from a hop's first send to its first reply, recorded only when
  // the hop failed over; buckets sized for timeout-dominated latencies.
  failover_latency_ = &metrics.histogram(
      prefix + "failover_latency",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000});
  // Rebind → invalidate-processed windows; buckets sized for one-way
  // network latencies (the push transit time dominates when healthy).
  stale_window_ = &metrics.histogram(
      prefix + "stale_window",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000});
  // Correlation ids are unique per client *and* per attempt: the endpoint
  // id seeds the high bits so two clients never share an id space (the
  // server's duplicate window is keyed by raw correlation id).
  next_corr_ = ((endpoint_.value() + 1) << 32) | 1;
  transport_.set_handler(endpoint_,
                         [this](EndpointId, const Message& message) {
                           if (message.type == NsWire::kInvalidate) {
                             handle_invalidate(message);
                           } else {
                             handle_reply(message);
                           }
                         });
}

ResolverClient::~ResolverClient() {
  transport_.clear_handler(endpoint_);
  (void)net_.remove_endpoint(endpoint_);
  // Settle anything still in flight: continuations scheduled on the
  // simulator capture `this` by id and must never fire after destruction,
  // and waiters holding a handle deserve an answer, not a hang.
  auto requests = std::move(requests_);
  requests_.clear();
  inflight_.clear();
  corr_to_request_.clear();
  for (auto& [id, record] : requests) {
    if (record->timeout_event.valid()) sim_.cancel(record->timeout_event);
    std::vector<Waiter> waiters = std::move(record->waiters);
    for (Waiter& waiter : waiters) {
      settle_waiter(waiter,
                    unreachable_error(
                        "resolver client destroyed with the resolution "
                        "in flight"));
    }
  }
}

StatsSnapshot ResolverClient::snapshot() const {
  return StatsSnapshot(transport_.metrics(), metrics_prefix_);
}

const ResolverClient::CacheEntry* ResolverClient::cache_lookup(
    const CacheKey& key, std::uint64_t span) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  CacheEntry& entry = it->second;
  // Expiry at the exact boundary counts: an entry stamped `expires == now`
  // has lived its full TTL.
  if (entry.expires <= sim_.now()) {
    lru_.erase(entry.lru);
    cache_.erase(it);
    return nullptr;
  }
  if (config_.epoch_invalidation && entry.authority.valid()) {
    auto seen = epochs_seen_.find(entry.authority);
    if (seen != epochs_seen_.end() && seen->second.epoch > entry.epoch) {
      stale_epoch_drops_->inc();
      transport_.tracer().record_in_span(span, sim_.now(),
                                         EventKind::kStaleEpochDrop,
                                         entry.authority.value(), entry.epoch);
      lru_.erase(entry.lru);
      cache_.erase(it);
      return nullptr;
    }
  }
  if (entry.lease_id != 0 && entry.lease_expires <= sim_.now()) {
    // The promise lapsed unrenewed (authority unreachable, or the renewal
    // lost): degrade to riding out the plain TTL — the pre-lease bound —
    // rather than trusting a promise nobody is keeping anymore.
    lease_degrades_->inc();
    transport_.tracer().record_in_span(span, sim_.now(),
                                       EventKind::kLeaseDegrade,
                                       key.start.value(),
                                       entry.authority.valid()
                                           ? entry.authority.value()
                                           : 0);
    entry.lease_id = 0;
    entry.lease_expires = 0;
  }
  lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
  return &entry;
}

void ResolverClient::cache_insert(const CacheKey& key, CacheEntry entry) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    entry.lru = it->second.lru;
    lru_.splice(lru_.begin(), lru_, entry.lru);
    it->second = std::move(entry);
    return;
  }
  lru_.push_front(key);
  entry.lru = lru_.begin();
  cache_.emplace(key, std::move(entry));
  if (config_.cache_capacity > 0 && cache_.size() > config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    evictions_->inc();
  }
}

void ResolverClient::note_epoch(EntityId authority, std::uint64_t epoch) {
  if (!authority.valid()) return;
  auto it = epochs_seen_.find(authority);
  if (it != epochs_seen_.end()) {
    if (it->second.epoch < epoch) it->second.epoch = epoch;
    epoch_lru_.splice(epoch_lru_.begin(), epoch_lru_, it->second.lru);
    return;
  }
  epoch_lru_.push_front(authority);
  epochs_seen_.emplace(authority, EpochRecord{epoch, epoch_lru_.begin()});
  if (config_.epoch_table_capacity > 0 &&
      epochs_seen_.size() > config_.epoch_table_capacity) {
    // Forget the least recently touched authority. Safe in the failure
    // direction: a forgotten high-water mark only means its entries live
    // out their TTL instead of dying early.
    epochs_seen_.erase(epoch_lru_.back());
    epoch_lru_.pop_back();
  }
  epochs_tracked_->set(static_cast<double>(epochs_seen_.size()));
}

bool ResolverClient::is_suspect(MachineId machine) const {
  auto it = suspect_until_.find(machine);
  return it != suspect_until_.end() && it->second > sim_.now();
}

std::uint64_t ResolverClient::member_incarnation(MachineId machine) const {
  return membership_ == nullptr ? 0 : membership_->incarnation(machine);
}

std::vector<ResolverClient::ReplicaRef> ResolverClient::candidates_for(
    EntityId ctx, const ReplicaRef& via) const {
  auto my_loc = net_.location_of(endpoint_);
  if (!my_loc.is_ok()) return {via};
  std::vector<ReplicaRef> authoritative;
  for (MachineId m : service_.authorities().replicas_of(ctx)) {
    if (m == via.machine) continue;
    auto server = service_.server_on(m);
    if (!server.is_ok()) continue;
    auto loc = net_.location_of(server.value());
    if (!loc.is_ok()) continue;
    authoritative.push_back(ReplicaRef{relativize(loc.value(), my_loc.value()),
                                       m, member_incarnation(m)});
  }
  if (config_.shard_routing && !authoritative.empty() &&
      !service_.authorities().is_replica(ctx, via.machine)) {
    // Shard-aware first hop: go straight to the owning shard's servers
    // and keep the non-authoritative local server only as a last resort —
    // funnelling every lookup through one front door is exactly the
    // bottleneck sharding exists to remove.
    authoritative.push_back(via);
    return authoritative;
  }
  std::vector<ReplicaRef> out{via};
  out.insert(out.end(), authoritative.begin(), authoritative.end());
  return out;
}

void ResolverClient::purge_routes(MachineId machine) {
  for (auto it = shard_routes_.begin(); it != shard_routes_.end();) {
    auto& route = it->second;
    route.erase(std::remove_if(route.begin(), route.end(),
                               [machine](const ReplicaRef& ref) {
                                 return ref.machine == machine;
                               }),
                route.end());
    // An emptied route is forgotten outright, so later lookups fall back
    // to the authority map instead of a dead shortcut.
    it = route.empty() ? shard_routes_.erase(it) : std::next(it);
  }
}

void ResolverClient::refresh_routes(MachineId machine, const Pid& pid,
                                    std::uint64_t incarnation) {
  for (auto& [shard, route] : shard_routes_) {
    for (ReplicaRef& ref : route) {
      if (ref.machine == machine) {
        ref.pid = pid;
        ref.incarnation = incarnation;
      }
    }
  }
}

void ResolverClient::reroute_hop(PendingResolve& p) {
  auto local_server = service_.server_on(client_machine_);
  auto my_loc = net_.location_of(endpoint_);
  if (!local_server.is_ok() || !my_loc.is_ok()) {
    complete(p, unreachable_error("no local server to reroute through"));
    return;
  }
  auto server_loc = net_.location_of(local_server.value());
  if (!server_loc.is_ok()) {
    complete(p, unreachable_error("local server endpoint is dead"));
    return;
  }
  p.candidates = candidates_for(
      p.current, ReplicaRef{relativize(server_loc.value(), my_loc.value()),
                            client_machine_,
                            member_incarnation(client_machine_)});
  start_hop(p);
}

bool ResolverClient::heal_target(PendingResolve& p) {
  if (membership_ == nullptr) return false;
  ReplicaRef& target = p.candidates[p.order[p.candidate]];
  auto my_loc = net_.location_of(endpoint_);
  if (!my_loc.is_ok()) return false;
  const MemberState state = membership_->state(target.machine);
  if (state == MemberState::kDown) {
    // The machine left the fabric: skip it without burning the timeout
    // budget, forget routes through it, and give the hop one restart
    // with candidates re-derived from the (post-handoff) authority map.
    purge_routes(target.machine);
    dead_route_skips_->inc();
    if (!p.rerouted) {
      p.rerouted = true;
      reroute_hop(p);
      return true;
    }
    fail_candidate(p, unreachable_error("routed machine left the fabric"));
    return true;
  }
  if (state == MemberState::kUnknown) return false;
  const std::uint64_t current = membership_->incarnation(target.machine);
  if (current == target.incarnation) return false;
  // The machine renamed (or rejoined) since this route was minted: every
  // address in the route predates the event. Re-derive the pid from the
  // machine's *current* server address before wasting a send on it.
  auto server = service_.server_on(target.machine);
  if (server.is_ok()) {
    if (auto loc = net_.location_of(server.value()); loc.is_ok()) {
      Pid fresh = relativize(loc.value(), my_loc.value());
      if (fresh != target.pid) {
        target.pid = fresh;
        routes_healed_->inc();
        transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                           EventKind::kRouteHealed,
                                           target.machine.value(), current);
        refresh_routes(target.machine, fresh, current);
      }
    }
  }
  target.incarnation = current;
  return false;
}

void ResolverClient::settle_waiter(Waiter& waiter,
                                   const Result<EntityId>& result) {
  if (!result.is_ok()) failures_->inc();
  if (waiter.state->span != 0) {
    transport_.tracer().close_span(waiter.state->span, sim_.now(),
                                   result.is_ok());
  }
  waiter.state->result = result;
  waiter.state->done = true;
  if (waiter.callback) waiter.callback(waiter.state->result);
}

void ResolverClient::complete(PendingResolve& p,
                              const Result<EntityId>& result) {
  if (p.timeout_event.valid()) {
    sim_.cancel(p.timeout_event);
    p.timeout_event = EventId();
  }
  if (p.expected_corr != 0) {
    corr_to_request_.erase(p.expected_corr);
    p.expected_corr = 0;
  }
  if (auto in = inflight_.find(p.key); in != inflight_.end()) {
    auto& live = in->second;
    live.erase(std::remove(live.begin(), live.end(), &p), live.end());
    if (live.empty()) inflight_.erase(in);
  }
  if (p.refresh && !result.is_ok()) {
    // A failed background renewal: stop pretending the promise holds.
    // The entry keeps serving until its plain TTL runs out (the lease-off
    // bound), and clearing the lease state stops a renewal storm against
    // an unreachable authority.
    auto cit = cache_.find(p.key);
    if (cit != cache_.end() && cit->second.lease_id != 0) {
      lease_degrades_->inc();
      transport_.tracer().record(sim_.now(), EventKind::kLeaseDegrade, 0,
                                 p.key.start.value(),
                                 cit->second.authority.valid()
                                     ? cit->second.authority.value()
                                     : 0);
      cit->second.lease_id = 0;
      cit->second.lease_expires = 0;
    }
  }
  // Extract before settling: the record must outlive this call (we are
  // running inside one of its continuations), and a callback is free to
  // submit new resolutions — including one with this very key — without
  // colliding with a half-dead entry.
  auto node = requests_.extract(p.id);
  std::vector<Waiter> waiters = std::move(p.waiters);
  for (Waiter& waiter : waiters) settle_waiter(waiter, result);
}

void ResolverClient::start_hop(PendingResolve& p) {
  // Preference order: live replicas first (stable within each class), then
  // quarantined ones as a last resort — a suspect replica is still better
  // than failing the hop outright.
  p.order.clear();
  p.order.reserve(p.candidates.size());
  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    if (!is_suspect(p.candidates[i].machine)) p.order.push_back(i);
  }
  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    if (is_suspect(p.candidates[i].machine)) p.order.push_back(i);
  }
  p.candidate = 0;
  p.hop_begin = sim_.now();
  p.failed_over = false;
  p.last_error = unreachable_error("no reachable replica for this hop");
  if (p.order.empty()) {
    complete(p, p.last_error);
    return;
  }
  begin_candidate(p);
}

void ResolverClient::begin_candidate(PendingResolve& p) {
  // Each candidate starts from the base timeout again.
  p.attempt = 0;
  p.timeout = std::max<SimDuration>(1, config_.retry.request_timeout);
  send_attempt(p);
}

void ResolverClient::send_attempt(PendingResolve& p) {
  // Membership-aware rerouting: heal or skip a stale target first. A
  // `true` return means the healing path took over (hop restarted,
  // failed over, or completed) — `p` may even be dead.
  if (heal_target(p)) return;
  Tracer& tracer = transport_.tracer();
  const ReplicaRef& target = p.candidates[p.order[p.candidate]];
  p.expected_corr = next_corr_++;
  // Each attempt gets a fresh correlation id; bind it to the owning span
  // before the request leaves so the transport's send/drop/deliver events
  // — and the server's handling of this very id — attach to this
  // resolution.
  tracer.bind_corr(p.owner_span, p.expected_corr);
  if (p.attempt > 0) {
    backoff_retries_->inc();
    tracer.record_in_span(p.owner_span, sim_.now(), EventKind::kBackoffRetry,
                          p.attempt, p.timeout);
  }
  const ResolveRequest request{
      p.expected_corr, p.current, p.hop_text,
      config_.lease_coherence ? NsWire::kFlagLeaseRequested : 0};
  corr_to_request_[p.expected_corr] = p.id;
  messages_sent_->inc();
  Status sent = transport_.send(endpoint_, target.pid,
                                encode_resolve_request(request));
  if (!sent.is_ok()) {
    // Hard failure (dead sender, unresolvable address): no point retrying
    // this candidate at all.
    corr_to_request_.erase(p.expected_corr);
    p.expected_corr = 0;
    fail_candidate(p, std::move(sent));
    return;
  }
  const std::uint64_t id = p.id;
  p.timeout_deferred = false;
  p.timeout_event =
      sim_.schedule_in(p.timeout, [this, id] { on_timeout(id); });
}

void ResolverClient::on_timeout(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;  // settled at this very tick
  PendingResolve& p = *it->second;
  // Deadline ties go to the reply: the blocking resolver drained every
  // event with timestamp <= deadline before declaring the attempt lost, so
  // a reply landing exactly at the deadline won. Reproduce that by
  // deferring once behind everything already queued at this tick — if one
  // of those events is our reply, it cancels the deferred timeout. Once
  // only: two requests expiring on the same tick would otherwise defer
  // behind each other forever, and a reply can never be *generated* at the
  // tick it is sent (the transport's minimum latency is positive).
  auto next = sim_.next_event_time();
  if (!p.timeout_deferred && next && *next == sim_.now()) {
    p.timeout_deferred = true;
    p.timeout_event = sim_.schedule_in(0, [this, id] { on_timeout(id); });
    return;
  }
  p.timeout_event = EventId();
  corr_to_request_.erase(p.expected_corr);
  timeouts_->inc();
  transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                     EventKind::kTimeout, p.expected_corr,
                                     p.timeout);
  p.expected_corr = 0;
  if (p.attempt < config_.retry.retries) {
    // Silence: the request or the reply was lost (or is slower than the
    // timeout). Back off and resend.
    auto scaled = static_cast<SimDuration>(
        static_cast<double>(p.timeout) *
        std::max(1.0, config_.retry.backoff_multiplier));
    p.timeout = config_.retry.max_timeout > 0 ? std::min(scaled, config_.retry.max_timeout)
                                        : scaled;
    ++p.attempt;
    send_attempt(p);
    return;
  }
  fail_candidate(p, unreachable_error(
                        "no reply from name server after " +
                        std::to_string(config_.retry.retries + 1) +
                        " attempt(s) (message lost or too slow)"));
}

void ResolverClient::fail_candidate(PendingResolve& p, Status error) {
  const ReplicaRef& prev = p.candidates[p.order[p.candidate]];
  suspect_until_[prev.machine] = sim_.now() + config_.replica_quarantine;
  p.last_error = std::move(error);
  if (p.candidate + 1 < p.order.size()) {
    // The candidate exhausted its whole backoff budget: fail over.
    ++p.candidate;
    p.failed_over = true;
    failovers_->inc();
    const ReplicaRef& next = p.candidates[p.order[p.candidate]];
    transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                       EventKind::kFailover,
                                       prev.machine.value(),
                                       next.machine.value());
    begin_candidate(p);
    return;
  }
  complete(p, p.last_error);
}

void ResolverClient::handle_reply(const Message& message) {
  // A reply that does not match the layout exactly is dropped before
  // correlation routing: it cannot settle, or even be charged to, any
  // outstanding attempt.
  const std::optional<ResolveReply> reply = decode_resolve_reply(message);
  if (!reply) return;
  const std::uint64_t corr = reply->corr;
  auto route = corr_to_request_.find(corr);
  if (route == corr_to_request_.end()) {
    // A delayed duplicate from an earlier attempt or referral hop (or a
    // reply when nothing is outstanding). Accepting it would resolve the
    // wrong question — possibly someone else's.
    stale_replies_dropped_->inc();
    transport_.tracer().record(sim_.now(), EventKind::kStaleReplyDropped,
                               corr, endpoint_.value());
    return;
  }
  auto it = requests_.find(route->second);
  NAMECOH_CHECK(it != requests_.end(),
                "correlation id routed to a settled request");
  PendingResolve& p = *it->second;
  corr_to_request_.erase(route);
  p.expected_corr = 0;
  if (p.timeout_event.valid()) {
    sim_.cancel(p.timeout_event);
    p.timeout_event = EventId();
  }
  on_reply(p, *reply);
}

void ResolverClient::handle_invalidate(const Message& message) {
  const std::optional<Invalidate> push = decode_invalidate(message);
  if (!push) return;  // malformed
  const EntityId ctx = push->ctx;
  const std::uint64_t epoch = push->epoch;
  invalidates_received_->inc();
  transport_.tracer().record(sim_.now(), EventKind::kInvalidate, 0,
                             ctx.value(), epoch);
  // The push is an authoritative epoch announcement: raise the high-water
  // mark (covers entries the lease didn't name) and drop everything the
  // rebind superseded *now* — the whole point of the callback is closing
  // the window without waiting for the next lookup.
  note_epoch(ctx, epoch);
  for (auto it = cache_.begin(); it != cache_.end();) {
    CacheEntry& entry = it->second;
    if (entry.authority == ctx && entry.epoch < epoch) {
      stale_epoch_drops_->inc();
      lru_.erase(entry.lru);
      it = cache_.erase(it);
      continue;
    }
    // A concurrent refresh may already have cached the post-rebind answer
    // under a *new* lease; only the voided lease's state is cleared.
    if (entry.lease_id == push->lease_id) {
      entry.lease_id = 0;
      entry.lease_expires = 0;
    }
    ++it;
  }
  // Staleness window this push closed: rebind → the client acting on it.
  // Recorded per push (whether or not entries were still cached) — it is
  // the lease-mode analogue of "how long could I have served stale".
  if (push->rebound_at <= sim_.now()) {
    stale_window_->add(static_cast<double>(sim_.now() - push->rebound_at));
  }
}

void ResolverClient::on_reply(PendingResolve& p, const ResolveReply& reply) {
  Tracer& tracer = transport_.tracer();
  suspect_until_.erase(p.candidates[p.order[p.candidate]].machine);
  if (p.failed_over) {
    failover_latency_->add(static_cast<double>(sim_.now() - p.hop_begin));
  }
  // Every reply carries the authoritative context's rebind epoch; track
  // the high-water mark so superseded cache entries die on next lookup.
  note_epoch(reply.authority, reply.epoch);
  ++p.hops_done;
  switch (reply.disposition) {
    case NsWire::kAnswer:
      if (config_.cache_ttl > 0) {
        CacheEntry entry{reply.entity, sim_.now() + config_.cache_ttl,
                         reply.authority, reply.epoch,
                         /*negative=*/false, ""};
        if (reply.lease_id != 0) {
          entry.lease_id = reply.lease_id;
          entry.lease_duration = reply.lease_duration;
          entry.lease_expires = sim_.now() + reply.lease_duration;
        }
        cache_insert(p.key, std::move(entry));
      }
      complete(p, reply.entity);
      return;
    case NsWire::kError:
      if (config_.negative_cache_ttl > 0) {
        CacheEntry entry{EntityId::invalid(),
                         sim_.now() + config_.negative_cache_ttl,
                         reply.authority, reply.epoch,
                         /*negative=*/true, reply.error};
        if (reply.lease_id != 0) {
          entry.lease_id = reply.lease_id;
          entry.lease_duration = reply.lease_duration;
          entry.lease_expires = sim_.now() + reply.lease_duration;
        }
        cache_insert(p.key, std::move(entry));
      }
      complete(p, not_found_error(reply.error));
      return;
    case NsWire::kReferral: {
      auto suffix = referral_suffix(p.remaining, reply.remaining);
      if (!suffix) {
        // The server handed back a remaining path that is not a suffix of
        // what we asked it to resolve. Forwarding it would resolve a name
        // the caller never named; fail instead.
        complete(p, internal_error("referral remaining path '" +
                                   reply.remaining +
                                   "' is not a suffix of the request"));
        return;
      }
      referrals_followed_->inc();
      tracer.record_in_span(p.owner_span, sim_.now(),
                            EventKind::kReferralFollowed, reply.entity.value());
      // The next hop's candidates: the referred-to context's replica set
      // from the reply (pids already rebased by the transport; the
      // referral target first).
      p.candidates.clear();
      p.candidates.reserve(reply.replicas.size());
      for (const WireServer& server : reply.replicas) {
        p.candidates.push_back(ReplicaRef{server.pid, server.machine,
                                          member_incarnation(server.machine)});
      }
      p.current = reply.entity;
      p.remaining = *suffix;
      p.hop_text = p.remaining.joined();
      if (config_.shard_routing) {
        // Glue: learn the delegation boundary and the owning shard's route,
        // so the next hop and every later lookup into the same shard start
        // at that shard's servers.
        delegations_chased_->inc();
        glue_hits_->inc();
        tracer.record_in_span(p.owner_span, sim_.now(),
                              EventKind::kDelegationChase,
                              reply.entity.value(), reply.shard);
        ctx_shards_[reply.entity] = reply.shard;
        shard_routes_[reply.shard] = p.candidates;
        if (p.hop_shard != NsWire::kNoShard && reply.shard != p.hop_shard) {
          cross_shard_hops_->inc();
          tracer.record_in_span(p.owner_span, sim_.now(),
                                EventKind::kCrossShardHop, p.hop_shard,
                                reply.shard);
        }
        p.hop_shard = reply.shard;
      }
      // The limit-breaking referral is still counted above — the chase
      // just stops here instead of sending another hop. The limit is the
      // *request's* (part of the coalescing identity), not the config's.
      if (p.hops_done == p.max_referrals + 1) {
        complete(p, depth_exceeded_error("referral chase exceeded limit"));
        return;
      }
      p.rerouted = false;  // each hop gets one membership-driven reroute
      start_hop(p);
      return;
    }
    default:
      complete(p, internal_error("unknown reply disposition"));
      return;
  }
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name) {
  return resolve_async_impl(start, name, config_.resolve, {});
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name,
                                            ResolveCallback on_done) {
  return resolve_async_impl(start, name, config_.resolve,
                            std::move(on_done));
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name,
                                            const ResolveOptions& options,
                                            ResolveCallback on_done) {
  return resolve_async_impl(start, name, options, std::move(on_done));
}

ResolverClient::PendingResolve* ResolverClient::launch_exchange(
    CacheKey key, std::size_t max_referrals, bool refresh, Status* error) {
  // First hop: this machine's own server (DNS-style "local recursive"),
  // then — should it stay silent — the rest of the start context's replica
  // set, straight from the authority map (the client's bootstrap
  // knowledge; later hops learn their candidates from reply replica
  // lists).
  auto local_server = service_.server_on(client_machine_);
  if (!local_server.is_ok()) {
    *error = local_server.status();
    return nullptr;
  }
  auto my_loc = net_.location_of(endpoint_);
  auto server_loc = net_.location_of(local_server.value());
  if (!my_loc.is_ok() || !server_loc.is_ok()) {
    *error = unreachable_error("client or server endpoint is dead");
    return nullptr;
  }
  const EntityId start = key.start;
  const std::uint64_t id = next_request_id_++;
  auto record = std::make_unique<PendingResolve>(id, std::move(key));
  record->max_referrals = max_referrals;
  record->refresh = refresh;
  record->current = start;
  // The unresolved tail is a slice of the *record's own* copy of the name
  // (taken only after the key settles into its heap-pinned home); each
  // referral narrows it in place, so no per-hop name copies are made.
  record->remaining = record->key.name.slice();
  record->hop_text = record->key.name.to_path();
  record->candidates = candidates_for(
      start, ReplicaRef{relativize(server_loc.value(), my_loc.value()),
                        client_machine_,
                        member_incarnation(client_machine_)});
  if (config_.shard_routing) {
    const ShardId shard = service_.authorities().shard_of(start);
    record->hop_shard = shard == AuthorityMap::kNoShard
                            ? NsWire::kNoShard
                            : static_cast<std::uint64_t>(shard);
    // Glue-learned routes outrank the bootstrap map on the first hop, the
    // same trust order the referral chase uses: what the fabric *told*
    // this client about the start context's owner wins, even if the
    // authority map has since moved on (that is what makes a post-cutover
    // stale route land on the old owner and exercise its forwarding
    // window instead of silently teleporting — docs/REBALANCING.md).
    auto owned = ctx_shards_.find(start);
    if (owned != ctx_shards_.end()) {
      record->hop_shard = owned->second;
      auto route = shard_routes_.find(owned->second);
      if (route != shard_routes_.end() && !route->second.empty()) {
        record->candidates = route->second;
        route_reuses_->inc();
      }
    }
  }
  PendingResolve& p = *record;
  requests_.emplace(id, std::move(record));
  inflight_[p.key].push_back(&p);
  return &p;
}

void ResolverClient::maybe_renew(const CacheKey& key,
                                 const CacheEntry& entry) {
  if (entry.lease_id == 0) return;
  const SimDuration margin = entry.lease_duration / 4;
  if (entry.lease_expires > sim_.now() &&
      entry.lease_expires - sim_.now() > margin) {
    return;  // plenty of term left
  }
  // An exchange for this key is already on the wire (a real lookup or an
  // earlier refresh); its answer will re-lease the entry.
  if (inflight_.contains(key)) return;
  lease_renewals_->inc();
  Status error = internal_error("unset");
  PendingResolve* p = launch_exchange(key, config_.resolve.max_referrals,
                                      /*refresh=*/true, &error);
  if (p == nullptr) return;  // can't renew now; degrade on lapse instead
  start_hop(*p);
}

ResolveHandle ResolverClient::resolve_async_impl(EntityId start,
                                                 const CompoundName& name,
                                                 const ResolveOptions& options,
                                                 ResolveCallback callback) {
  Tracer& tracer = transport_.tracer();
  auto state = std::make_shared<ResolveHandle::State>();
  // The span (and the path string it labels) exists only when tracing is
  // on; the disabled path costs one branch. Every waiter gets its own
  // span, coalesced or not — "what did this caller ask and get" stays
  // answerable per caller.
  if (tracer.enabled()) {
    state->span = tracer.open_span(sim_.now(), start.value(), name.to_path());
  }
  ResolveHandle handle(state);
  Waiter waiter{std::move(state), std::move(callback)};
  resolutions_->inc();
  if (name.front().is_root()) {
    settle_waiter(waiter,
                  invalid_argument_error(
                      "remote resolution takes names relative to a context "
                      "object; resolve the root binding locally first"));
    return handle;
  }

  CacheKey key{start, name};
  const bool use_cache =
      config_.cache_ttl > 0 || config_.negative_cache_ttl > 0;
  if (use_cache) {
    if (const CacheEntry* hit = cache_lookup(key, waiter.state->span)) {
      // Copy out of the cache before settling: the callback may resolve
      // again and rearrange the entry under the pointer.
      const CacheEntry served = *hit;
      if (served.negative) {
        negative_hits_->inc();
        tracer.record_in_span(waiter.state->span, sim_.now(),
                              EventKind::kNegativeHit, start.value());
        settle_waiter(waiter, not_found_error(served.error));
      } else {
        cache_hits_->inc();
        tracer.record_in_span(waiter.state->span, sim_.now(),
                              EventKind::kCacheHit, start.value(),
                              served.entity.value());
        settle_waiter(waiter, Result<EntityId>(served.entity));
      }
      // Re-use renews: a hit on a leased entry whose term is nearly out
      // kicks off a background refresh, after the waiter settles.
      if (config_.lease_coherence) maybe_renew(key, served);
      return handle;
    }
    cache_misses_->inc();
    tracer.record_in_span(waiter.state->span, sim_.now(),
                          EventKind::kCacheMiss, start.value());
  }

  // Coalescing: a lookup identical to one already on the wire attaches to
  // that exchange instead of duplicating it — but only when the options
  // that shape the wire outcome agree. A waiter with a different referral
  // budget attached to the owner's exchange could receive an answer its
  // own limit forbids (or a spurious limit error), so it runs its own
  // exchange instead ("coalesce_rejected"). The waiter keeps its own span
  // and callback; only the wire work is shared.
  if (auto in = inflight_.find(key); in != inflight_.end()) {
    PendingResolve* compatible = nullptr;
    for (PendingResolve* live : in->second) {
      if (live->max_referrals == options.max_referrals) {
        compatible = live;
        break;
      }
    }
    if (compatible != nullptr) {
      coalesced_->inc();
      tracer.record_in_span(waiter.state->span, sim_.now(),
                            EventKind::kCoalesced, start.value(),
                            compatible->id);
      compatible->waiters.push_back(std::move(waiter));
      return handle;
    }
    coalesce_rejected_->inc();
  }

  Status error = internal_error("unset");
  PendingResolve* p =
      launch_exchange(std::move(key), options.max_referrals,
                      /*refresh=*/false, &error);
  if (p == nullptr) {
    settle_waiter(waiter, error);
    return handle;
  }
  p->owner_span = waiter.state->span;
  p->waiters.push_back(std::move(waiter));
  start_hop(*p);
  return handle;
}

Result<EntityId> ResolverClient::resolve(EntityId start,
                                         const CompoundName& name) {
  return resolve(start, name, config_.resolve);
}

Result<EntityId> ResolverClient::resolve(EntityId start,
                                         const CompoundName& name,
                                         const ResolveOptions& options) {
  ResolveHandle handle = resolve_async(start, name, options);
  sim_.run_while([&handle] { return !handle.done(); });
  NAMECOH_CHECK(handle.done(),
                "blocking resolve stalled: the event queue drained before "
                "the reply chain completed");
  return handle.result();
}

}  // namespace namecoh

#include "ns/resolver_client.hpp"

#include <algorithm>
#include <utility>

#include "ns/membership.hpp"

namespace namecoh {
namespace {

/// Each loss multiplies the attempt timeout by this (exponential backoff),
/// up to RetryPolicy::max_timeout.
constexpr double kBackoffMultiplier = 2.0;

}  // namespace

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

ResolverClient::ResolverClient(Internetwork& net, Transport& transport,
                               Simulator& sim, const NameService& service,
                               MachineId machine, std::string label,
                               ResolverClientConfig config)
    : net_(net),
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
  invalidates_received_ = &metrics.counter(prefix + "invalidates_received");
  lease_renewals_ = &metrics.counter(prefix + "lease_renewals");
  lease_degrades_ = &metrics.counter(prefix + "lease_degrades");
  // Sharding counters are registry-wide ("ns.shard.*"), not per-client:
  // "how much referral traffic crossed shards" is a fabric question, and
  // thousands of bench clients sharing three counters beats thousands of
  // prefixed triples.
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
  // simulator capture `this` and must never fire after destruction, and
  // waiters holding a handle deserve an answer, not a hang.
  auto exchanges = std::move(inflight_);
  inflight_.clear();
  corr_to_request_.clear();
  for (auto& [key, record] : exchanges) {
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
  bool dead = entry.expires <= sim_.now();
  if (!dead && config_.epoch_invalidation && entry.authority.valid()) {
    auto seen = epochs_seen_.find(entry.authority);
    if (seen != epochs_seen_.end() && seen->second.epoch > entry.epoch) {
      stale_epoch_drops_->inc();
      transport_.tracer().record_in_span(span, sim_.now(),
                                         EventKind::kStaleEpochDrop,
                                         entry.authority.value(), entry.epoch);
      dead = true;
    }
  }
  if (dead) {
    lru_.erase(entry.lru);
    cache_.erase(it);
    return nullptr;
  }
  if (entry.lease_id != 0 && entry.lease_expires <= sim_.now()) {
    // The promise lapsed unrenewed (authority unreachable, or the renewal
    // lost): stop trusting a promise nobody is keeping anymore.
    degrade_lease(key.start, entry, span);
  }
  lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
  return &entry;
}

void ResolverClient::degrade_lease(EntityId start, CacheEntry& entry,
                                   std::uint64_t span) {
  lease_degrades_->inc();
  transport_.tracer().record_in_span(
      span, sim_.now(), EventKind::kLeaseDegrade, start.value(),
      entry.authority.valid() ? entry.authority.value() : 0);
  entry.lease_id = 0;
  entry.lease_expires = 0;
}

void ResolverClient::cache_reply(const CacheKey& key,
                                 const ResolveReply& reply, SimDuration ttl) {
  if (ttl == 0) return;  // this kind of answer is not cached
  const bool negative = reply.disposition == NsWire::kError;
  CacheEntry entry{negative ? EntityId::invalid() : reply.entity,
                   sim_.now() + ttl,
                   reply.authority,
                   reply.epoch,
                   negative,
                   negative ? reply.error : ""};
  if (reply.lease_id != 0) {
    entry.lease_id = reply.lease_id;
    entry.lease_duration = reply.lease_duration;
    entry.lease_expires = sim_.now() + reply.lease_duration;
  }
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

Result<ResolverClient::ReplicaRef> ResolverClient::route_to(
    MachineId machine) const {
  auto server = service_.server_on(machine);
  if (!server.is_ok()) return server.status();
  auto my_loc = net_.location_of(endpoint_);
  auto server_loc = net_.location_of(server.value());
  if (!my_loc.is_ok() || !server_loc.is_ok()) {
    return unreachable_error("client or server endpoint is dead");
  }
  return ReplicaRef{relativize(server_loc.value(), my_loc.value()), machine,
                    member_incarnation(machine)};
}

std::vector<ResolverClient::ReplicaRef> ResolverClient::candidates_for(
    EntityId ctx, const ReplicaRef& via) const {
  std::vector<ReplicaRef> authoritative;
  for (MachineId m : service_.authorities().replicas_of(ctx)) {
    if (m == via.machine) continue;
    if (auto route = route_to(m); route.is_ok()) {
      authoritative.push_back(route.value());
    }
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

bool ResolverClient::heal_target(PendingResolve& p) {
  if (membership_ == nullptr) return false;
  ReplicaRef& target = p.candidates[p.candidate];
  const MemberState state = membership_->state(target.machine);
  if (state == MemberState::kDown) {
    // The machine left the fabric: skip it without burning the timeout
    // budget, forget routes through it, and give the hop one restart
    // with candidates re-derived from the (post-handoff) authority map.
    purge_routes(target.machine);
    dead_route_skips_->inc();
    if (!p.rerouted) {
      p.rerouted = true;
      auto local = route_to(client_machine_);
      if (!local.is_ok()) {
        complete(p, unreachable_error("no local server to reroute through"));
        return true;
      }
      p.candidates = candidates_for(p.current, local.value());
      start_hop(p);
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
  auto fresh = route_to(target.machine);
  if (fresh.is_ok() && fresh.value().pid != target.pid) {
    target.pid = fresh.value().pid;
    routes_healed_->inc();
    transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                       EventKind::kRouteHealed,
                                       target.machine.value(), current);
    refresh_routes(target.machine, target.pid, current);
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
  sim_.cancel(std::exchange(p.timeout_event, EventId()));  // none: a no-op
  if (p.expected_corr != 0) {
    corr_to_request_.erase(p.expected_corr);
    p.expected_corr = 0;
  }
  if (p.refresh && !result.is_ok()) {
    // A failed background renewal: stop pretending the promise holds.
    // The entry keeps serving until its plain TTL runs out (the lease-off
    // bound), and clearing the lease state stops a renewal storm against
    // an unreachable authority.
    auto cit = cache_.find(p.key);
    if (cit != cache_.end() && cit->second.lease_id != 0) {
      degrade_lease(p.key.start, cit->second, 0);
    }
  }
  // Extract before settling: the record must outlive this call (we are
  // running inside one of its continuations), and a callback is free to
  // submit new resolutions — including one with this very key — without
  // colliding with a half-dead entry.
  auto node = inflight_.extract(p.key);
  std::vector<Waiter> waiters = std::move(p.waiters);
  for (Waiter& waiter : waiters) settle_waiter(waiter, result);
}

void ResolverClient::start_hop(PendingResolve& p) {
  // Preference order: live replicas first (stable within each class), then
  // quarantined ones as a last resort — a suspect replica is still better
  // than failing the hop outright. Every caller has just assigned a fresh
  // candidate list, so reordering it in place loses nothing.
  const auto live = [this](const ReplicaRef& ref) {
    return !is_suspect(ref.machine);
  };
  if (!std::all_of(p.candidates.begin(), p.candidates.end(), live)) {
    std::stable_partition(p.candidates.begin(), p.candidates.end(), live);
  }
  p.candidate = 0;
  p.hop_begin = sim_.now();
  p.failed_over = false;
  p.last_error = unreachable_error("no reachable replica for this hop");
  if (p.candidates.empty()) {
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
  const ReplicaRef& target = p.candidates[p.candidate];
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
  corr_to_request_[p.expected_corr] = &p;
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
  const std::uint64_t corr = p.expected_corr;
  p.timeout_deferred = false;
  p.timeout_event =
      sim_.schedule_in(p.timeout, [this, corr] { on_timeout(corr); });
}

void ResolverClient::on_timeout(std::uint64_t corr) {
  // The same rule as handle_reply: act only while the corr is awaited.
  auto route = corr_to_request_.find(corr);
  if (route == corr_to_request_.end()) return;  // answered or settled
  PendingResolve& p = *route->second;
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
    p.timeout_event =
        sim_.schedule_in(0, [this, corr] { on_timeout(corr); });
    return;
  }
  p.timeout_event = EventId();
  corr_to_request_.erase(route);
  timeouts_->inc();
  transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                     EventKind::kTimeout, corr, p.timeout);
  p.expected_corr = 0;
  if (p.attempt < config_.retry.retries) {
    // Silence: the request or the reply was lost (or is slower than the
    // timeout). Back off and resend.
    auto scaled = static_cast<SimDuration>(static_cast<double>(p.timeout) *
                                           kBackoffMultiplier);
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
  const ReplicaRef& prev = p.candidates[p.candidate];
  suspect_until_[prev.machine] = sim_.now() + config_.replica_quarantine;
  p.last_error = std::move(error);
  if (p.candidate + 1 < p.candidates.size()) {
    // The candidate exhausted its whole backoff budget: fail over.
    ++p.candidate;
    p.failed_over = true;
    failovers_->inc();
    const ReplicaRef& next = p.candidates[p.candidate];
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
  PendingResolve& p = *route->second;
  corr_to_request_.erase(route);
  p.expected_corr = 0;
  sim_.cancel(std::exchange(p.timeout_event, EventId()));  // none: a no-op
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
  suspect_until_.erase(p.candidates[p.candidate].machine);
  if (p.failed_over) {
    failover_latency_->add(static_cast<double>(sim_.now() - p.hop_begin));
  }
  // Every reply carries the authoritative context's rebind epoch; track
  // the high-water mark so superseded cache entries die on next lookup.
  note_epoch(reply.authority, reply.epoch);
  ++p.hops_done;
  switch (reply.disposition) {
    case NsWire::kAnswer:
      cache_reply(p.key, reply, config_.cache_ttl);
      complete(p, reply.entity);
      return;
    case NsWire::kError:
      cache_reply(p.key, reply, config_.negative_cache_ttl);
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
      // just stops here instead of sending another hop.
      if (p.hops_done == config_.max_referrals + 1) {
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

Result<ResolverClient::PendingResolve*> ResolverClient::launch_exchange(
    CacheKey key, bool refresh) {
  // First hop: this machine's own server (DNS-style "local recursive"),
  // then — should it stay silent — the rest of the start context's replica
  // set, straight from the authority map (the client's bootstrap
  // knowledge; later hops learn their candidates from reply replica
  // lists).
  auto local = route_to(client_machine_);
  if (!local.is_ok()) return local.status();
  const EntityId start = key.start;
  auto record = std::make_unique<PendingResolve>(std::move(key));
  record->refresh = refresh;
  record->current = start;
  // The unresolved tail is a slice of the *record's own* copy of the name
  // (taken only after the key settles into its heap-pinned home); each
  // referral narrows it in place, so no per-hop name copies are made.
  record->remaining = record->key.name.slice();
  record->hop_text = record->key.name.to_path();
  record->candidates = candidates_for(start, local.value());
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
  inflight_.emplace(p.key, std::move(record));
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
  auto p = launch_exchange(key, /*refresh=*/true);
  if (!p.is_ok()) return;  // can't renew now; degrade on lapse instead
  start_hop(*p.value());
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name,
                                            ResolveCallback on_done) {
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
  Waiter waiter{std::move(state), std::move(on_done)};
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

  // Coalescing: a lookup identical to one already on the wire (a lookup
  // or a background lease refresh) attaches to that exchange instead of
  // duplicating it. Every exchange runs under the one config, so the
  // attached waiter gets exactly the answer it would have got alone. The
  // waiter keeps its own span and callback; only the wire work is shared.
  if (auto in = inflight_.find(key); in != inflight_.end()) {
    PendingResolve& live = *in->second;
    coalesced_->inc();
    tracer.record_in_span(waiter.state->span, sim_.now(),
                          EventKind::kCoalesced, start.value(),
                          live.owner_span);
    live.waiters.push_back(std::move(waiter));
    return handle;
  }

  auto launched = launch_exchange(std::move(key), /*refresh=*/false);
  if (!launched.is_ok()) {
    settle_waiter(waiter, launched.status());
    return handle;
  }
  PendingResolve& p = *launched.value();
  p.owner_span = waiter.state->span;
  p.waiters.push_back(std::move(waiter));
  start_hop(p);
  return handle;
}

Result<EntityId> ResolverClient::resolve(EntityId start,
                                         const CompoundName& name) {
  ResolveHandle handle = resolve_async(start, name);
  sim_.run_while([&handle] { return !handle.done(); });
  NAMECOH_CHECK(handle.done(),
                "blocking resolve stalled: the event queue drained before "
                "the reply chain completed");
  return handle.result();
}

}  // namespace namecoh

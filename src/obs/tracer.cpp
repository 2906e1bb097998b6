#include "obs/tracer.hpp"

#include <algorithm>

namespace namecoh {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSpanBegin: return "span_begin";
    case EventKind::kSpanEnd: return "span_end";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kNegativeHit: return "negative_hit";
    case EventKind::kStaleEpochDrop: return "stale_epoch_drop";
    case EventKind::kReferralFollowed: return "referral_followed";
    case EventKind::kTimeout: return "timeout";
    case EventKind::kBackoffRetry: return "backoff_retry";
    case EventKind::kStaleReplyDropped: return "stale_reply_dropped";
    case EventKind::kCoalesced: return "coalesced";
    case EventKind::kSend: return "send";
    case EventKind::kDrop: return "drop";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kMisdeliver: return "misdeliver";
    case EventKind::kUnreachable: return "unreachable";
    case EventKind::kServerHandle: return "server_handle";
    case EventKind::kServerAnswer: return "server_answer";
    case EventKind::kServerReferral: return "server_referral";
    case EventKind::kServerError: return "server_error";
    case EventKind::kServerDuplicate: return "server_duplicate";
    case EventKind::kUpdatePush: return "update_push";
    case EventKind::kUpdateApply: return "update_apply";
    case EventKind::kUpdateStale: return "update_stale";
    case EventKind::kStoreAnswer: return "store_answer";
    case EventKind::kFailover: return "failover";
    case EventKind::kLeaseGrant: return "lease_grant";
    case EventKind::kInvalidate: return "invalidate";
    case EventKind::kLeaseDegrade: return "lease_degrade";
    case EventKind::kFaultCrash: return "fault_crash";
    case EventKind::kFaultRestart: return "fault_restart";
    case EventKind::kFaultPartition: return "fault_partition";
    case EventKind::kFaultHeal: return "fault_heal";
    case EventKind::kFaultDropCrash: return "fault_drop_crash";
    case EventKind::kFaultDropPartition: return "fault_drop_partition";
    case EventKind::kFaultDelay: return "fault_delay";
    case EventKind::kDelegationChase: return "delegation_chase";
    case EventKind::kCrossShardHop: return "cross_shard_hop";
    case EventKind::kMigrationPhase: return "migration_phase";
    case EventKind::kForwarded: return "forwarded";
    case EventKind::kMemberJoin: return "member_join";
    case EventKind::kMemberLeave: return "member_leave";
    case EventKind::kMemberCrash: return "member_crash";
    case EventKind::kMemberRename: return "member_rename";
    case EventKind::kRouteHealed: return "route_healed";
    case EventKind::kResolveStep: return "resolve_step";
    case EventKind::kKindCount: break;
  }
  return "unknown";
}

void Tracer::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_ && ring_.size() != capacity_) {
    ring_.assign(capacity_, TraceEvent{});
    start_ = 0;
    size_ = 0;
  }
}

void Tracer::set_capacity(std::size_t capacity) {
  NAMECOH_CHECK(capacity > 0, "trace ring needs capacity >= 1");
  capacity_ = capacity;
  if (!ring_.empty() || enabled_) ring_.assign(capacity_, TraceEvent{});
  start_ = 0;
  size_ = 0;
}

void Tracer::push(const TraceEvent& event) {
  if (size_ == capacity_) {
    ring_[start_] = event;
    start_ = start_ + 1 == capacity_ ? 0 : start_ + 1;
    ++dropped_;
    return;
  }
  std::size_t pos = start_ + size_;
  if (pos >= capacity_) pos -= capacity_;
  ring_[pos] = event;
  ++size_;
}

void Tracer::record(SimTime at, EventKind kind, std::uint64_t corr,
                    std::uint64_t a, std::uint64_t b) {
  if (!enabled_) return;
  std::uint64_t span = 0;
  if (corr != 0) {
    auto it = corr_to_span_.find(corr);
    if (it != corr_to_span_.end()) span = it->second;
  }
  push(TraceEvent{at, kind, span, corr, a, b});
}

void Tracer::record_in_span(std::uint64_t span, SimTime at, EventKind kind,
                            std::uint64_t a, std::uint64_t b) {
  if (!enabled_) return;
  push(TraceEvent{at, kind, span, 0, a, b});
}

std::uint64_t Tracer::open_span(SimTime at, std::uint64_t start_entity,
                                std::string path) {
  if (!enabled_) return 0;
  SpanRecord span;
  span.id = next_span_++;
  span.begin = at;
  span.start_entity = start_entity;
  span.path = std::move(path);
  if (spans_.size() == kMaxSpans) {
    for (std::uint64_t corr : spans_.front().corrs) corr_to_span_.erase(corr);
    spans_.pop_front();
    ++spans_dropped_;
  }
  spans_.push_back(std::move(span));
  push(TraceEvent{at, EventKind::kSpanBegin, spans_.back().id, 0,
                  start_entity, 0});
  return spans_.back().id;
}

SpanRecord* Tracer::find_span(std::uint64_t id) {
  return const_cast<SpanRecord*>(
      static_cast<const Tracer*>(this)->span(id));
}

void Tracer::bind_corr(std::uint64_t span, std::uint64_t corr) {
  if (!enabled_ || span == 0 || corr == 0) return;
  SpanRecord* record = find_span(span);
  if (record == nullptr) return;
  record->corrs.push_back(corr);
  corr_to_span_[corr] = span;
}

void Tracer::close_span(std::uint64_t span, SimTime at, bool ok) {
  if (span == 0) return;  // opened while disabled (or never opened)
  SpanRecord* record = find_span(span);
  if (record == nullptr || !record->open) return;
  record->end = at;
  record->open = false;
  record->ok = ok;
  // Unroute the span's correlation ids: a reply that straggles in after
  // the span closed must not be attributed to a *recycled* routing slot.
  for (std::uint64_t corr : record->corrs) corr_to_span_.erase(corr);
  if (enabled_) {
    push(TraceEvent{at, EventKind::kSpanEnd, span, 0, ok ? 1u : 0u, 0});
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t pos = start_ + i;
    if (pos >= capacity_) pos -= capacity_;
    out.push_back(ring_[pos]);
  }
  return out;
}

std::size_t Tracer::count(EventKind kind) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t pos = start_ + i;
    if (pos >= capacity_) pos -= capacity_;
    if (ring_[pos].kind == kind) ++n;
  }
  return n;
}

const SpanRecord* Tracer::span(std::uint64_t id) const {
  // Ids are assigned in increasing order and spans_ is FIFO, so binary
  // search applies; the deque stays small (<= kMaxSpans) regardless.
  auto it = std::lower_bound(spans_.begin(), spans_.end(), id,
                             [](const SpanRecord& s, std::uint64_t want) {
                               return s.id < want;
                             });
  if (it == spans_.end() || it->id != id) return nullptr;
  return &*it;
}

std::vector<TraceEvent> Tracer::events_for_span(std::uint64_t id) const {
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t pos = start_ + i;
    if (pos >= capacity_) pos -= capacity_;
    if (ring_[pos].span == id) out.push_back(ring_[pos]);
  }
  return out;
}

void Tracer::clear() {
  start_ = 0;
  size_ = 0;
  dropped_ = 0;
  spans_.clear();
  spans_dropped_ = 0;
  corr_to_span_.clear();
}

}  // namespace namecoh

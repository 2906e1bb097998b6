#include "sim/simulator.hpp"

#include <algorithm>

namespace namecoh {

EventId Simulator::schedule_at(SimTime at, std::function<void()> action) {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot schedule events inside a pure-compute section");
  NAMECOH_CHECK(at >= now_, "cannot schedule an event in the past");
  NAMECOH_CHECK(static_cast<bool>(action), "null event action");
  std::uint64_t id = next_id_++;
  queue_.push_back(Entry{at, next_seq_++, id, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  pending_.insert(id);
  return EventId(id);
}

EventId Simulator::schedule_in(SimDuration delay,
                               std::function<void()> action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  return id.valid() && pending_.erase(id.value()) > 0;
}

std::optional<SimTime> Simulator::next_event_time() {
  while (!queue_.empty() && !pending_.contains(queue_.front().id)) {
    // Cancelled; discard lazily, as fire_next() would.
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
  }
  if (queue_.empty()) return std::nullopt;
  return queue_.front().at;
}

bool Simulator::fire_next() {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot fire events inside a pure-compute section");
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Entry entry = std::move(queue_.back());
    queue_.pop_back();
    if (pending_.erase(entry.id) == 0) continue;  // cancelled; skip silently
    now_ = entry.at;
    ++events_processed_;
    entry.action();
    return true;
  }
  return false;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && fire_next()) ++fired;
  return fired;
}

std::uint64_t Simulator::run_until(SimTime until) {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot run the simulator inside a pure-compute section");
  std::uint64_t fired = 0;
  // Deadline checks must look past cancelled entries: a cancelled head at
  // t <= until used to admit fire_next(), which discarded it and then fired
  // the next *pending* event even when that one was after the deadline.
  // next_event_time() prunes cancelled heads, so the timestamp it reports
  // is the one fire_next() will actually run.
  while (true) {
    auto next = next_event_time();
    if (!next || *next > until) break;
    if (fire_next()) ++fired;
  }
  now_ = std::max(now_, until);
  return fired;
}

std::uint64_t Simulator::run_while(const std::function<bool()>& keep_going) {
  NAMECOH_CHECK(static_cast<bool>(keep_going), "null run_while predicate");
  std::uint64_t fired = 0;
  while (keep_going() && fire_next()) ++fired;
  return fired;
}

void Simulator::reset() {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot reset the simulator inside a pure-compute section");
  queue_.clear();
  pending_.clear();
  now_ = 0;
  // next_id_/next_seq_ keep increasing so stale EventIds never alias.
  events_processed_ = 0;
}

}  // namespace namecoh

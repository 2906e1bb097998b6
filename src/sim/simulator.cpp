#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace namecoh {

EventId Simulator::schedule_at(SimTime at, std::function<void()> action) {
  NAMECOH_CHECK(at >= now_, "cannot schedule an event in the past");
  NAMECOH_CHECK(static_cast<bool>(action), "null event action");
  std::uint32_t slot;
  if (free_.empty()) {
    NAMECOH_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                  "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = next_seq_++;
  s.action = std::move(action);
  heap_.push_back(slot);
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  return EventId(std::uint64_t{s.generation} << 32 | slot);
}

EventId Simulator::schedule_in(SimDuration delay,
                               std::function<void()> action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  // The invalid id's slot half is 2^32 - 1, which no queue reaches.
  const auto slot = static_cast<std::uint32_t>(id.value());
  if (slot >= slots_.size() || slots_[slot].generation != id.value() >> 32) {
    return false;  // fired, cancelled, dropped by reset(), or never issued
  }
  remove(slot);  // the returned action is destroyed here, queue consistent
  return true;
}

std::optional<SimTime> Simulator::next_event_time() const {
  if (heap_.empty()) return std::nullopt;
  return slots_[heap_.front()].at;
}

void Simulator::sift_up(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, slot);
}

void Simulator::sift_down(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], slot)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, slot);
}

std::function<void()> Simulator::remove(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint32_t pos = s.heap_pos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The last leaf fills the hole, then moves whichever way restores the
    // heap: up if it beats the hole's parent, down otherwise.
    place(pos, last);
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  ++s.generation;
  free_.push_back(slot);
  return std::exchange(s.action, nullptr);
}

bool Simulator::fire_next() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_.front();
  now_ = slots_[slot].at;
  // Off the queue before it runs: the action may schedule (and so reuse
  // this slot) or cancel its own, now stale, id.
  std::function<void()> action = remove(slot);
  ++events_processed_;
  action();
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && fire_next()) ++fired;
  return fired;
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t fired = 0;
  // The heap holds only live events, so its head is the next one to fire.
  while (!heap_.empty() && slots_[heap_.front()].at <= until) {
    fire_next();
    ++fired;
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
  // Freeing a slot moves its generation on, so ids from before the reset
  // cannot cancel events scheduled after it.
  while (!heap_.empty()) remove(heap_.back());
  now_ = 0;
  events_processed_ = 0;
}

}  // namespace namecoh

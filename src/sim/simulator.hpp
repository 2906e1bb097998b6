// Deterministic discrete-event simulation kernel.
//
// The paper's systems (Newcastle Connection machines, Port processes
// exchanging pids) ran on real networks; we substitute a single-threaded
// event simulator so every experiment is exactly reproducible. Events at
// equal timestamps fire in scheduling order (a monotonically increasing
// sequence number breaks ties), so runs are deterministic regardless of
// container iteration order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/ids.hpp"
#include "util/status.hpp"

namespace namecoh {

/// Simulated time in integer ticks (we treat a tick as a microsecond in the
/// experiments, but nothing depends on the unit).
using SimTime = std::uint64_t;
using SimDuration = std::uint64_t;

/// Handle for cancelling a scheduled event: the queue slot in the low 32
/// bits, that slot's generation in the high 32. A slot's generation moves on
/// every time it is freed (fired, cancelled or dropped by reset()), so an id
/// never cancels a later occupant of its slot.
struct EventTag {};
using EventId = StrongId<EventTag>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Timestamp of the earliest pending event, or nullopt when the queue is
  /// empty. Lets callers wait with a deadline ("run events up to t, no
  /// further") without firing anything. The queue holds only live events,
  /// so its head is always the event fire_next() runs next.
  [[nodiscard]] std::optional<SimTime> next_event_time() const;

  /// Schedule `action` to run at absolute time `at` (>= now).
  EventId schedule_at(SimTime at, std::function<void()> action);
  /// Schedule `action` to run `delay` ticks from now.
  EventId schedule_in(SimDuration delay, std::function<void()> action);

  /// Cancel a pending event and drop it from the queue at once, O(log n);
  /// returns false if it already ran, was already cancelled or predates
  /// reset().
  bool cancel(EventId id);

  /// Run until the queue is empty or `max_events` have fired.
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  /// Run events with timestamp <= until; the clock ends at `until` even if
  /// the queue drained earlier. Returns the number of events fired.
  std::uint64_t run_until(SimTime until);

  /// Fire events one at a time while `keep_going()` returns true, stopping
  /// as soon as the predicate flips or the queue drains. The predicate is
  /// evaluated before every event, so an event that satisfies the caller's
  /// condition is the last one fired. This is the drive loop of blocking
  /// waits layered over async work ("run until this handle completes")
  /// without the waiter owning a deadline. Returns the number of events
  /// fired.
  std::uint64_t run_while(const std::function<bool()>& keep_going);

  /// Drop all pending events and reset the clock. Event ids from before
  /// the reset are invalidated.
  void reset();

 private:
  /// One queued event. Slots are reused through free_; heap_pos is the
  /// slot's index in heap_ while it is queued, so cancel() can remove it
  /// without searching.
  struct Slot {
    SimTime at = 0;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = 0;
    std::function<void()> action;
  };

  /// Strict (at, seq) order: equal timestamps fire in scheduling order.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.at != y.at ? x.at < y.at : x.seq < y.seq;
  }
  void place(std::uint32_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    slots_[slot].heap_pos = pos;
  }
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Take `slot` out of the heap and the live set: its generation moves on
  /// and it joins the free list. Returns its action for the caller to run
  /// or destroy once the queue is consistent again.
  std::function<void()> remove(std::uint32_t slot);
  bool fire_next();

  std::vector<Slot> slots_;
  /// Min-heap of slot indices on (at, seq); holds exactly the live events.
  std::vector<std::uint32_t> heap_;
  std::vector<std::uint32_t> free_;  // freed slots, reused last-in first-out
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace namecoh

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
#include <unordered_set>
#include <vector>

#include "util/ids.hpp"
#include "util/status.hpp"

namespace namecoh {

/// Simulated time in integer ticks (we treat a tick as a microsecond in the
/// experiments, but nothing depends on the unit).
using SimTime = std::uint64_t;
using SimDuration = std::uint64_t;

/// Handle for cancelling a scheduled event.
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
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// Timestamp of the earliest pending event, or nullopt when the queue is
  /// empty. Lets callers wait with a deadline ("run events up to t, no
  /// further") without firing anything. Non-const: prunes cancelled entries
  /// lingering at the head of the queue.
  [[nodiscard]] std::optional<SimTime> next_event_time();

  /// Schedule `action` to run at absolute time `at` (>= now).
  EventId schedule_at(SimTime at, std::function<void()> action);
  /// Schedule `action` to run `delay` ticks from now.
  EventId schedule_in(SimDuration delay, std::function<void()> action);

  /// Cancel a pending event; returns false if it already ran or was
  /// already cancelled.
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

  /// True while a pure-compute section is open (see PureComputeSection).
  /// Scheduling or firing events is a thrown precondition violation while
  /// this holds — the explicit boundary between pure computation and
  /// simulated time (docs/PARALLELISM.md).
  [[nodiscard]] bool in_pure_section() const { return pure_depth_ > 0; }

 private:
  friend class PureComputeSection;
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool fire_next();

  /// Min-heap on (at, seq) under std::push_heap/pop_heap with Later; a
  /// plain vector so fire_next can move the head out instead of copying
  /// its action.
  std::vector<Entry> queue_;
  std::unordered_set<std::uint64_t> pending_;  // ids not yet fired/cancelled
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t events_processed_ = 0;
  int pure_depth_ = 0;
};

/// RAII marker for the "pure compute vs simulated event" boundary
/// (docs/PARALLELISM.md). While a section is open — typically for the
/// duration of a parallel resolution batch on the worker pool — the
/// simulator is fenced: schedule_at/schedule_in, run/run_until/run_while,
/// and reset all throw PreconditionError. The fence is what makes the seam
/// checkable rather than aspirational: a worker (or a callback reached from
/// one) that tries to touch simulated time fails loudly at the boundary
/// instead of racing the event queue. Constructing with nullptr is a no-op,
/// so callers without a simulator (purely local batches) need no branch.
/// Sections nest; the fence lifts when the outermost one closes.
class PureComputeSection {
 public:
  explicit PureComputeSection(Simulator* sim) : sim_(sim) {
    if (sim_) ++sim_->pure_depth_;
  }
  PureComputeSection(const PureComputeSection&) = delete;
  PureComputeSection& operator=(const PureComputeSection&) = delete;
  ~PureComputeSection() {
    if (sim_) --sim_->pure_depth_;
  }

 private:
  Simulator* sim_;
};

}  // namespace namecoh

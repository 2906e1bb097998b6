// Tests for the discrete-event simulator: ordering, determinism,
// cancellation, and run_until semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace namecoh {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, FiresInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_in(5, [&] {
    times.push_back(sim.now());
    sim.schedule_in(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 10}));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_at(10, std::function<void()>{}),
               PreconditionError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // idempotent: already cancelled
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.schedule_at(1, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(EventId::invalid()));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(100), 0u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunMaxEventsBudget) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i + 1, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4u);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, ResetClearsState) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.schedule_at(5, [] {});
  sim.run(1);
  sim.reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, StaleEventIdAfterResetCannotCancelNewEvents) {
  Simulator sim;
  EventId old_id = sim.schedule_at(10, [] {});
  sim.reset();
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(old_id));  // ids are never reused
  sim.run();
  EXPECT_EQ(fired, 1);
}

// Regression: run_until's deadline check used to look at the raw queue
// head. A *cancelled* event before the deadline would admit fire_next(),
// which discarded it and then ran the next pending event even when that
// event lay beyond the deadline.
TEST(Simulator, RunUntilIgnoresCancelledHeadBeforeDeadline) {
  Simulator sim;
  int fired = 0;
  EventId a = sim.schedule_at(5, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.run_until(10), 0u);  // nothing pending at <= 10
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.run(), 1u);  // the t=20 event is still intact
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, RunUntilFiresPendingEventBehindCancelledHead) {
  Simulator sim;
  int fired = 0;
  EventId a = sim.schedule_at(5, [&] { fired += 100; });
  sim.schedule_at(8, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.run_until(10), 1u);  // the t=8 event, not the cancelled t=5
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunWhileStopsWhenPredicateTurnsFalse) {
  Simulator sim;
  int fired = 0;
  bool done = false;
  sim.schedule_at(5, [&] { ++fired; });
  sim.schedule_at(10, [&] {
    ++fired;
    done = true;
  });
  sim.schedule_at(20, [&] { ++fired; });  // must NOT fire
  EXPECT_EQ(sim.run_while([&] { return !done; }), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 10u);
  // The untouched t=20 event is still pending for a later drive.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunWhileChecksPredicateBeforeFirstEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  EXPECT_EQ(sim.run_while([] { return false; }), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, RunWhileStopsOnEmptyQueueEvenIfPredicateHolds) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  EXPECT_EQ(sim.run_while([] { return true; }), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, IdOfAFreedSlotCannotCancelItsNextOccupant) {
  Simulator sim;
  int fired = 0;
  EventId cancelled = sim.schedule_at(10, [&] { fired += 100; });
  EXPECT_TRUE(sim.cancel(cancelled));
  EventId reuser = sim.schedule_at(20, [&] { ++fired; });  // same slot
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(reuser));  // fired; its slot is free again
  EventId next = sim.schedule_at(30, [&] { fired += 100; });
  EXPECT_FALSE(sim.cancel(reuser));
  EXPECT_TRUE(sim.cancel(next));
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 1);
}

/// Differential check of the event queue against a reference model: a
/// std::map keyed by (at, scheduling order). Random interleavings of
/// schedules (with tied timestamps), cancels of live, fired, cancelled and
/// pre-reset ids, actions that schedule or cancel other events, run(k),
/// run_until and reset must agree on firing order, cancel results,
/// pending() and next_event_time().
class SimQueueDifferential : public ::testing::TestWithParam<int> {
 protected:
  enum class Nested { kNone, kSchedule, kCancel };
  struct Record {
    EventId id;
    SimTime at = 0;
    std::uint64_t seq = 0;
    bool live = true;
    Nested nested = Nested::kNone;
    std::uint64_t arg = 0;  // delay for kSchedule, raw pick for kCancel
  };

  std::uint64_t draw(std::uint64_t bound) { return rng_() % bound; }

  void schedule(SimTime at, Nested nested, std::uint64_t arg) {
    const std::size_t tag = records_.size();
    const std::uint64_t seq = next_seq_++;
    records_.push_back(Record{EventId(), at, seq, true, nested, arg});
    model_.emplace(std::make_pair(at, seq), tag);
    records_[tag].id = sim_.schedule_at(at, [this, tag] { on_fire(tag); });
  }

  void schedule_random(SimTime at) {
    const std::uint64_t kind = draw(10);
    if (kind < 7) {
      schedule(at, Nested::kNone, 0);
    } else if (kind < 9) {
      schedule(at, Nested::kSchedule, draw(20));
    } else {
      schedule(at, Nested::kCancel, rng_());
    }
  }

  void cancel(std::size_t tag) {
    Record& r = records_[tag];
    const bool expected = r.live;
    EXPECT_EQ(sim_.cancel(r.id), expected) << "tag " << tag;
    if (expected) {
      model_.erase(std::make_pair(r.at, r.seq));
      r.live = false;
    }
  }

  void on_fire(std::size_t tag) {
    ASSERT_FALSE(model_.empty());
    EXPECT_EQ(model_.begin()->second, tag) << "fired out of order";
    Record& r = records_[tag];
    EXPECT_TRUE(r.live);
    EXPECT_EQ(sim_.now(), r.at);
    model_.erase(std::make_pair(r.at, r.seq));
    r.live = false;
    ++fired_;
    // The action's own id is stale once it runs.
    EXPECT_FALSE(sim_.cancel(r.id));
    if (r.nested == Nested::kSchedule) {
      schedule(sim_.now() + r.arg, Nested::kNone, 0);
    } else if (r.nested == Nested::kCancel) {
      cancel(r.arg % records_.size());
    }
  }

  void check_queue() {
    ASSERT_EQ(sim_.pending(), model_.size());
    if (model_.empty()) {
      EXPECT_EQ(sim_.next_event_time(), std::nullopt);
    } else {
      EXPECT_EQ(sim_.next_event_time(), model_.begin()->first.first);
    }
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::vector<Record> records_;
  std::map<std::pair<SimTime, std::uint64_t>, std::size_t> model_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

TEST_P(SimQueueDifferential, MatchesReferenceModel) {
  rng_.seed(static_cast<std::uint64_t>(GetParam()));
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t pick = draw(100);
    if (pick < 40) {
      // Timestamps from a narrow window, so ties on `at` are common.
      schedule_random(sim_.now() + draw(50));
    } else if (pick < 52 && !model_.empty()) {
      // A live event anywhere in the queue, not only at its head.
      auto it = model_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(draw(model_.size())));
      cancel(it->second);
    } else if (pick < 65 && !records_.empty()) {
      cancel(draw(records_.size()));  // live, fired, cancelled or pre-reset
    } else if (pick < 78) {
      const std::uint64_t k = draw(6);
      const std::uint64_t before = fired_;
      const std::uint64_t ran = sim_.run(k);
      EXPECT_EQ(ran, fired_ - before);
      EXPECT_TRUE(ran == k || model_.empty()) << "stopped early";
      EXPECT_LE(ran, k);
    } else if (pick < 92) {
      const SimTime start = sim_.now();
      const SimTime until = start + draw(40);
      const std::uint64_t before = fired_;
      const std::uint64_t ran = sim_.run_until(until);
      EXPECT_EQ(ran, fired_ - before);
      EXPECT_EQ(sim_.now(), until);
      if (!model_.empty()) {
        EXPECT_GT(model_.begin()->first.first, until);
      }
    } else if (pick < 94) {
      sim_.reset();
      for (Record& r : records_) r.live = false;
      model_.clear();
      EXPECT_EQ(sim_.now(), 0u);
    } else if (pick < 96) {
      EXPECT_FALSE(sim_.cancel(EventId::invalid()));
    } else {
      // A waiter whose predicate flips after a few events.
      const std::uint64_t stop_after = draw(4);
      std::uint64_t seen = 0;
      const std::uint64_t before = fired_;
      const std::uint64_t ran =
          sim_.run_while([&] { return seen++ < stop_after; });
      EXPECT_EQ(ran, fired_ - before);
      EXPECT_TRUE(ran == stop_after || model_.empty()) << "stopped early";
    }
    check_queue();
    if (HasFailure()) FAIL() << "seed " << GetParam() << ", op " << op;
  }
  sim_.run();
  EXPECT_TRUE(model_.empty());
  check_queue();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimQueueDifferential, ::testing::Range(0, 100));

/// An event action that counts its own copies.
struct CopyCountingAction {
  int* copies;
  int* fired;
  CopyCountingAction(int* c, int* f) : copies(c), fired(f) {}
  CopyCountingAction(const CopyCountingAction& other)
      : copies(other.copies), fired(other.fired) {
    ++*copies;
  }
  CopyCountingAction& operator=(const CopyCountingAction&) = delete;
  void operator()() const { ++*fired; }
};

TEST(Simulator, FiringMovesTheActionInsteadOfCopyingIt) {
  // The queue reorders around the counted action (earlier, later and
  // same-tick events, one scheduled from inside the run), and firing it
  // must still copy it zero times after schedule_at returned.
  Simulator sim;
  int copies = 0;
  int fired = 0;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(20, CopyCountingAction(&copies, &fired));
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_at(20, [&] { order.push_back(2); });
  });
  sim.schedule_at(5, [&] { order.push_back(0); });
  const int copies_when_scheduled = copies;
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(copies, copies_when_scheduled);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Property: N events at random distinct times fire in sorted order.
class SimOrdering : public ::testing::TestWithParam<int> {};

TEST_P(SimOrdering, AlwaysSorted) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  // Deterministic pseudo-random times from the seed parameter.
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1;
  for (int i = 0; i < 50; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    SimTime t = x % 1000;
    sim.schedule_at(t, [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  EXPECT_EQ(fire_times.size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOrdering, ::testing::Range(1, 11));

}  // namespace
}  // namespace namecoh

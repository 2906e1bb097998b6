// Tests for the discrete-event simulator: ordering, determinism,
// cancellation, and run_until semantics.
#include <gtest/gtest.h>

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

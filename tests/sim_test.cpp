#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace agile::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.next_event_time(), -1);  // empty queue
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(300, [&] { order.push_back(3); });
  s.schedule_at(100, [&] { order.push_back(1); });
  s.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.next_event_time(), 100);
  s.run_until(150);
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(s.next_event_time(), 200);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.next_event_time(), -1);
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesNow) {
  Simulation s;
  SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulation, RunUntilAdvancesClockToBound) {
  Simulation s;
  int fired = 0;
  s.schedule_at(100, [&] { ++fired; });
  s.schedule_at(500, [&] { ++fired; });
  s.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 200);
  s.run_until(500);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulation, RunUntilInclusiveOfBoundary) {
  Simulation s;
  int fired = 0;
  s.schedule_at(200, [&] { ++fired; });
  s.run_until(200);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, StopHaltsRun) {
  Simulation s;
  int fired = 0;
  s.schedule_at(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, PeriodicFiresAtPeriod) {
  Simulation s;
  std::vector<SimTime> times;
  auto task = s.schedule_periodic(100, [&](SimTime now) { times.push_back(now); });
  s.run_until(350);
  EXPECT_EQ(times, (std::vector<SimTime>{100, 200, 300}));
  task->cancel();
  s.run_until(1000);
  EXPECT_EQ(times.size(), 3u);
}

TEST(Simulation, PeriodicPeriodChangeTakesEffectNextFire) {
  Simulation s;
  std::vector<SimTime> times;
  std::shared_ptr<PeriodicTask> task;
  task = s.schedule_periodic(100, [&](SimTime now) {
    times.push_back(now);
    if (times.size() == 2) task->set_period(300);
  });
  s.run_until(1100);
  // 100, 200 at period 100; then 500, 800, 1100 at period 300.
  EXPECT_EQ(times, (std::vector<SimTime>{100, 200, 500, 800, 1100}));
  task->cancel();
}

TEST(Simulation, CancelInsideCallbackStopsFutureFires) {
  Simulation s;
  int fires = 0;
  std::shared_ptr<PeriodicTask> task;
  task = s.schedule_periodic(10, [&](SimTime) {
    if (++fires == 3) task->cancel();
  });
  s.run();
  EXPECT_EQ(fires, 3);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.schedule_after(5, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.now(), 45);
}

}  // namespace
}  // namespace agile::sim

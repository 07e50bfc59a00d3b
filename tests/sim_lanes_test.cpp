// Sharded event lanes (sim/lanes.hpp): the determinism contract.
//
// Unit level: (time, channel, seq) execution order, mailbox drain ordering,
// horizon handling at quantum edges, lane-count independence of per-channel
// observables, and death tests for the two contract violations (conservative
// lookahead and cross-lane scheduling). Integration level: a small fleet
// scenario must produce byte-identical metrics digests (executed-event count
// included) *and* Chrome trace JSON at lane counts 1, 2 and 3, and
// `Cluster::run_until` must behave when the bound lands exactly on a barrier
// (quantum edge) at 1 and 2 lanes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "host/cluster.hpp"
#include "sim/lanes.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace agile {
namespace {

namespace scen = core::scenarios;
using sim::LaneCoordinator;

/// Coordinator plus the pool it needs; lanes == 1 runs poolless.
struct LaneRig {
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<LaneCoordinator> coord;

  explicit LaneRig(std::size_t lanes) {
    LaneCoordinator::Config cfg;
    cfg.lanes = lanes;
    if (lanes > 1) {
      pool = std::make_unique<util::ThreadPool>(lanes - 1);
      cfg.pool = pool.get();
    }
    coord = std::make_unique<LaneCoordinator>(cfg);
  }
};

TEST(LaneCoordinator, ExecutesInTimeChannelSeqOrder) {
  LaneRig rig(1);
  LaneCoordinator& c = *rig.coord;
  c.ensure_channels(3);
  // Interleave scheduling across channels and times; the log must come out
  // sorted by (time, channel, insertion-within-channel).
  std::vector<std::string> log;
  auto ev = [&log](const char* tag) {
    return [&log, tag] { log.emplace_back(tag); };
  };
  c.schedule(2, 20, ev("t20c2"));
  c.schedule(0, 20, ev("t20c0a"));
  c.schedule(1, 10, ev("t10c1"));
  c.schedule(0, 20, ev("t20c0b"));
  c.schedule(0, 10, ev("t10c0"));
  c.advance_to(20);
  EXPECT_EQ(log, (std::vector<std::string>{"t10c0", "t10c1", "t20c0a",
                                           "t20c0b", "t20c2"}));
  EXPECT_EQ(c.events_executed(), 5u);
}

TEST(LaneCoordinator, HorizonIsInclusiveAndMonotonic) {
  LaneRig rig(1);
  LaneCoordinator& c = *rig.coord;
  c.ensure_channels(2);
  int fired = 0;
  c.schedule(0, 100, [&] { ++fired; });  // exactly on the horizon: runs
  c.schedule(1, 101, [&] { ++fired; });  // one past: stays pending
  EXPECT_EQ(c.next_event_time(), 100);
  EXPECT_EQ(c.pending_events(), 2u);
  c.advance_to(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(c.barrier_time(), 100);
  EXPECT_EQ(c.next_event_time(), 101);
  EXPECT_EQ(c.pending_events(), 1u);
  c.advance_to(100);  // empty window at the same horizon is fine
  EXPECT_EQ(fired, 1);
  c.advance_to(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(c.next_event_time(), -1);
  EXPECT_EQ(c.pending_events(), 0u);
}

TEST(LaneCoordinator, MailboxDrainsInTimeSourceSeqOrder) {
  LaneRig rig(1);
  LaneCoordinator& c = *rig.coord;
  c.ensure_channels(4);
  std::vector<std::string> arrivals;
  auto arrive = [&arrivals](const char* tag) {
    return [&arrivals, tag] { arrivals.emplace_back(tag); };
  };
  // Three source channels post to channel 3 for the next window. Drain order
  // is (delivery time, source channel, per-source seq) — channel 2's earlier
  // delivery time beats channel 0's source index, and channel 0's two posts
  // keep their issue order.
  c.schedule(0, 10, [&] {
    c.post(3, 200, arrive("c0-first"));
    c.post(3, 200, arrive("c0-second"));
  });
  c.schedule(1, 10, [&] { c.post(3, 200, arrive("c1")); });
  c.schedule(2, 10, [&] { c.post(3, 150, arrive("c2-early")); });
  c.advance_to(100);
  EXPECT_EQ(c.pending_events(), 4u);
  c.advance_to(300);
  EXPECT_EQ(arrivals, (std::vector<std::string>{"c2-early", "c0-first",
                                                "c0-second", "c1"}));
}

TEST(LaneCoordinator, ThreadEventTimeStampsTheRunningEvent) {
  LaneRig rig(1);
  LaneCoordinator& c = *rig.coord;
  c.ensure_channels(1);
  SimTime inside = -1;
  c.schedule(0, 70, [&] { inside = LaneCoordinator::thread_event_time(-7); });
  c.advance_to(100);
  EXPECT_EQ(inside, 70);
  // Off-lane threads (here: the test body) get the fallback.
  EXPECT_EQ(LaneCoordinator::thread_event_time(-7), -7);
}

/// Runs the same scripted two-window workload and returns the per-channel
/// logs. Channel-confined appends plus cross-channel posts; any lane count
/// must produce identical logs.
std::vector<std::vector<std::string>> scripted_run(std::size_t lanes) {
  LaneRig rig(lanes);
  LaneCoordinator& c = *rig.coord;
  constexpr std::size_t kChannels = 8;
  c.ensure_channels(kChannels);
  std::vector<std::vector<std::string>> logs(kChannels);
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    for (int k = 0; k < 3; ++k) {
      SimTime t = 10 * (1 + static_cast<SimTime>((ch + static_cast<std::size_t>(k)) % 3));
      c.schedule(ch, t, [&logs, ch, t, k] {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "t%lld-k%d", static_cast<long long>(t), k);
        logs[ch].emplace_back(buf);
      });
    }
    // Cross-channel: tell channel (ch+3)%kChannels about us, next window.
    std::size_t target = (ch + 3) % kChannels;
    c.schedule(ch, 10, [&c, &logs, ch, target] {
      c.post(target, 100, [&logs, ch, target] {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "from%zu", ch);
        logs[target].emplace_back(buf);
      });
    });
  }
  c.advance_to(50);
  c.advance_to(100);
  return logs;
}

TEST(LaneCoordinator, LaneCountDoesNotChangeObservables) {
  auto sequential = scripted_run(1);
  EXPECT_EQ(scripted_run(2), sequential);
  EXPECT_EQ(scripted_run(4), sequential);
}

TEST(LaneCoordinatorDeath, PostBelowHorizonDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LaneCoordinator::Config cfg;
        LaneCoordinator coord(cfg);
        coord.ensure_channels(2);
        // Delivery before the open window's horizon breaks conservative
        // lookahead: the target lane may already have run past t=50.
        coord.schedule(0, 10, [&coord] { coord.post(1, 50, [] {}); });
        coord.advance_to(100);
      },
      "AGILE_CHECK failed");
}

TEST(LaneCoordinatorDeath, CrossLaneScheduleDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        util::ThreadPool pool(1);
        LaneCoordinator::Config cfg;
        cfg.lanes = 2;
        cfg.pool = &pool;
        LaneCoordinator coord(cfg);
        coord.ensure_channels(2);  // default plan: channel 1 on lane 1
        coord.schedule(0, 10, [&coord] { coord.schedule(1, 20, [] {}); });
        coord.advance_to(100);
      },
      "AGILE_CHECK failed");
}

TEST(ClusterLanes, RunUntilLandsExactlyOnQuantumEdge) {
  for (std::uint32_t lanes : {1u, 2u}) {
    SCOPED_TRACE(lanes);
    host::ClusterConfig cfg;
    cfg.lanes = lanes;
    host::Cluster cluster(cfg);
    host::HostConfig h;
    h.name = "h0";
    cluster.add_host(h);
    h.name = "h1";
    cluster.add_host(h);
    const SimTime q = cfg.quantum;
    std::vector<int> fired;
    cluster.schedule_on_host(0, q, [&] { fired.push_back(0); });
    cluster.schedule_on_host(1, 2 * q, [&] { fired.push_back(1); });
    cluster.run_until(q);  // bound == first barrier
    EXPECT_EQ(cluster.simulation().now(), q);
    EXPECT_EQ(fired, (std::vector<int>{0}));
    cluster.run_until(3 * q);  // continues cleanly past the landing point
    EXPECT_EQ(fired, (std::vector<int>{0, 1}));
    EXPECT_EQ(cluster.simulation().now(), 3 * q);
    // A bound between quanta: the one-shot due exactly there still runs.
    cluster.schedule_on_host(0, 3 * q + 50, [&] { fired.push_back(2); });
    cluster.run_until(3 * q + 50);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(cluster.simulation().now(), 3 * q + 50);
  }
}

/// One small fleet run at the given lane count: returns a metrics digest and
/// the full Chrome trace JSON. Everything must be byte-identical across lane
/// counts.
void fleet_fingerprint(std::uint32_t lanes, std::string* digest,
                       std::string* trace_json) {
  trace::TraceSession session;  // before the testbed: capture construction
  scen::FleetOptions opt;
  // Bench-default bed (4 hosts, 6 VMs, 3 turning hot at t=90). Don't move
  // the hotspot earlier: the orchestrator holds its first decision until
  // every WSS estimate stabilizes, and a hotspot inside that stabilization
  // window defers the decision past any short horizon. With the default
  // timing the multi-victim decision lands at t=150.
  opt.lanes = lanes;
  scen::Fleet fleet = scen::make_fleet(opt);
  fleet.load_all();
  fleet.orchestrator->start();
  fleet.bed->cluster().run_for_seconds(200);
  fleet.orchestrator->stop();

  std::uint64_t ops = 0;
  for (const workload::YcsbWorkload* y : fleet.ycsbs) ops += y->ops_total();
  std::size_t completed = 0;
  Bytes wire = 0;
  for (const auto& m : fleet.orchestrator->migrations()) {
    if (m->completed()) ++completed;
    wire += m->metrics().bytes_transferred;
  }
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "now=%lld events=%llu ops=%llu migs=%zu done=%zu wire=%llu",
      static_cast<long long>(fleet.bed->cluster().simulation().now()),
      static_cast<unsigned long long>(
          fleet.bed->cluster().events_executed_total()),
      static_cast<unsigned long long>(ops),
      fleet.orchestrator->migrations_launched(), completed,
      static_cast<unsigned long long>(wire));
  *digest = buf;
  *trace_json = session.recorder().to_chrome_json();
}

TEST(ClusterLanes, FleetByteIdenticalAcrossLaneCounts) {
  std::string d1, d2, d3, t1, t2, t3;
  fleet_fingerprint(1, &d1, &t1);
  fleet_fingerprint(2, &d2, &t2);
  fleet_fingerprint(3, &d3, &t3);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t3);
  // Something actually ran and migrated in this bed, or the identity above
  // proves much less than it claims.
  EXPECT_NE(d1.find("migs="), std::string::npos);
  EXPECT_EQ(d1.find("migs=0 "), std::string::npos) << d1;
}

}  // namespace
}  // namespace agile

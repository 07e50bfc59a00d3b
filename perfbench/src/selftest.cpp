// Self-test of the benchmark's own arithmetic on synthetic inputs: the
// ledger phases partition run_s, medians, and the base of every ratio the
// report prints.
#include <cmath>
#include <cstdio>
#include <string>

#include "report.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect_near(const std::string& what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::fmax(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what.c_str(), got, want);
    ++g_failures;
  }
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  std::printf("FAIL metric %s missing\n", name.c_str());
  ++g_failures;
  return NAN;
}

void test_ledger_partition() {
  PhaseClock c;
  // A quantum before the segment must not leak into it.
  c.workload_call(1, 1);
  c.first_control(2);
  c.last_control(3);
  c.observer(4);

  c.begin(100);
  // Quantum 1 on two lanes: the earliest call marks the quantum start.
  c.workload_call(115, 20);
  c.workload_call(110, 30);
  c.first_control(150);
  c.last_control(170);
  c.observer(200);
  // Quantum 2: no workload ran (idle VM), so the guest phase is empty.
  c.first_control(260);
  c.last_control(261);
  c.observer(290);
  c.end(300);

  const PhaseTotals t = c.totals();
  expect_near("ledger guest", static_cast<double>(t.guest_ns), 40);
  expect_near("ledger migration", static_cast<double>(t.migration_ns), 21);
  expect_near("ledger reclaim_net", static_cast<double>(t.reclaim_net_ns), 59);
  expect_near("ledger between", static_cast<double>(t.between_ns), 10 + 60);
  expect_near("ledger other", static_cast<double>(t.other_ns), 10);
  expect_near("ledger busy", static_cast<double>(t.busy_ns), 50);
  expect_near("ledger quanta", static_cast<double>(t.quanta), 2);
  expect_near("ledger partition",
              static_cast<double>(t.quantum_phases_ns() + t.other_ns), 200);
}

void test_median() {
  expect_near("median odd", median({3, 1, 2}), 2);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("median single", median({7}), 7);
  expect_near("median empty", median({}), 0);
}

void test_end_to_end_bases() {
  Execution a;
  a.launched = 4;
  a.completed = 3;
  a.migration_s_sum = 30;
  a.downtime_ms_sum = 600;
  a.wire_mib = 100;
  a.client_ops = 2.5e6;
  a.run_s = 10;
  a.setup_s = {3, 1, 2};
  Execution b = a;
  b.run_s = 14;
  b.setup_s = {5};

  const std::vector<Metric> ok = end_to_end_metrics({a, b}, 512, true);
  expect_near("run_s median of repetitions", metric(ok, "run_s"), 12);
  expect_near("setup_s median of every set-up", metric(ok, "setup_s"), 2.5);
  expect_near("peak_rss_mib", metric(ok, "peak_rss_mib"), 512);
  // Means over *completed* migrations; the fraction's base is *launched*.
  expect_near("sim_migration_s base", metric(ok, "sim_migration_s"), 10);
  expect_near("sim_downtime_ms base", metric(ok, "sim_downtime_ms"), 200);
  expect_near("sim_wire_mib", metric(ok, "sim_wire_mib"), 100);
  expect_near("sim_client_mops", metric(ok, "sim_client_mops"), 2.5);
  expect_near("completed_frac base", metric(ok, "completed_frac"), 0.75);

  // A failed output check counts every launched migration as failed; the
  // means stay as measured rather than reading a perfect 0.
  const std::vector<Metric> bad = end_to_end_metrics({a}, 512, false);
  expect_near("completed_frac on failed check", metric(bad, "completed_frac"),
              0);
  expect_near("sim_migration_s on failed check",
              metric(bad, "sim_migration_s"), 10);
  expect_near("sim_downtime_ms on failed check",
              metric(bad, "sim_downtime_ms"), 200);
}

void test_tally() {
  Execution a;
  a.launched = 4;
  a.completed = 3;
  Execution b = a;
  b.completed = 4;
  const Tally ok = tally({a, b}, true);
  expect_near("attempted over executions", static_cast<double>(ok.attempted),
              8);
  expect_near("failed over executions", static_cast<double>(ok.failed), 1);
  const Tally bad = tally({a, b}, false);
  expect_near("failed check fails every attempt",
              static_cast<double>(bad.failed), 8);
  // Nothing launched and a check failed: one attempt, and it failed.
  const Tally none = tally({Execution{}}, false);
  expect_near("empty run attempted", static_cast<double>(none.attempted), 1);
  expect_near("empty run failed", static_cast<double>(none.failed), 1);
}

void test_per_layer_bases() {
  Execution t;
  t.lanes = 2;
  t.run_s = 0.1;
  t.phases.guest_ns = 40'000'000;
  t.phases.migration_ns = 10'000'000;
  t.phases.reclaim_net_ns = 20'000'000;
  t.phases.between_ns = 25'000'000;
  t.phases.other_ns = 5'000'000;
  t.phases.busy_ns = 60'000'000;
  t.counts.ops = 1000;
  t.counts.major_faults = 50;
  t.pages_full = 100;
  t.duplicates = 5;
  t.deferrals = 1;
  t.decision_launches = 3;
  t.launched = 4;
  t.technique_time["agile"] = {20, 2};
  Execution u;
  u.run_s = 0.08;

  const std::vector<Metric> m = per_layer_metrics(t, u);
  expect_near("coverage", metric(m, "ledger.coverage_pct"), 95);
  expect_near("trace.overhead base untraced",
              metric(m, "trace.overhead"), 1.25);
  expect_near("major_fault_ratio base ops", metric(m, "mem.major_fault_ratio"),
              0.05);
  expect_near("dup_ratio base full pages", metric(m, "migration.dup_ratio"),
              0.05);
  expect_near("defer_ratio base selected victims",
              metric(m, "core.defer_ratio"), 0.25);
  expect_near("lane_efficiency base lanes x guest",
              metric(m, "sim.lane_efficiency"), 0.75);
  expect_near("touches_per_s base busy seconds",
              metric(m, "workload.touches_per_s"), 1000 / 0.06);
  expect_near("agile mean", metric(m, "migration.agile.sim_s"), 10);
  expect_near("absent technique", metric(m, "migration.precopy.sim_s"), 0);
  expect_near("empty base", ratio(5, 0), 0);
}

void test_json_and_digest() {
  const std::string json =
      json_result(true, 3, 0, {{"run_s", 1.5, "s"}, {"x", NAN, "count"}});
  const std::string want =
      "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
      "{\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, "
      "\"unit\": \"count\"}}}";
  if (json != want) {
    std::printf("FAIL json_result: %s\n", json.c_str());
    ++g_failures;
  }
  if (fnv1a("") != 0xcbf29ce484222325ull || fnv1a("a") != 0xaf63dc4c8601ec8cull) {
    std::printf("FAIL fnv1a reference values\n");
    ++g_failures;
  }
}

}  // namespace

int run_self_test() {
  test_ledger_partition();
  test_median();
  test_end_to_end_bases();
  test_tally();
  test_per_layer_bases();
  test_json_and_digest();
  std::printf("perfbench self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench

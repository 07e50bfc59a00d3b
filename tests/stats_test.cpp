// Stats subsystem tests: registry get-or-create semantics, exact export
// formats (Prometheus text and snapshots JSON), histogram edge cases (empty
// export, inclusive bucket boundaries, saturation),
// health-model arithmetic, the write paths (parent-dir creation and the
// warning on failure), and end-to-end determinism: a full instrumented
// scenario run twice produces byte-identical exports. The ctest rerun with
// AGILE_AUDIT=1 proves the deep auditors never perturb a snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "core/scenarios.hpp"
#include "stats/health.hpp"
#include "stats/stats.hpp"

using namespace agile;
using stats::Histogram;
using stats::Labels;
using stats::MigrationHealth;
using stats::MigrationHealthModel;
using stats::MigrationObservation;
using stats::Registry;

namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- registry ----------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableCells) {
  Registry reg;
  stats::Counter* a = reg.counter("reqs_total", {{"vm", "a"}});
  stats::Counter* again = reg.counter("reqs_total", {{"vm", "a"}});
  EXPECT_EQ(a, again);
  stats::Counter* b = reg.counter("reqs_total", {{"vm", "b"}});
  EXPECT_NE(a, b);
  stats::Gauge* g = reg.gauge("depth");
  EXPECT_EQ(g, reg.gauge("depth"));
  EXPECT_EQ(reg.metric_count(), 3u);

  // Registry growth must not move live cells (lane events hold raw pointers).
  a->add(7);
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(a->value(), 7u);
  EXPECT_EQ(reg.counter("reqs_total", {{"vm", "a"}}), a);
}

TEST(RegistryDeathTest, KindMismatchDies) {
  Registry reg;
  reg.counter("series");
  EXPECT_DEATH(reg.gauge("series"), "different kind");
}

TEST(RegistryDeathTest, HistogramBoundsMismatchDies) {
  Registry reg;
  reg.histogram("lat", {10, 20});
  EXPECT_DEATH(reg.histogram("lat", {10, 30}), "different bounds");
}

// --- export formats ----------------------------------------------------

TEST(Export, PrometheusExactText) {
  Registry reg;
  reg.counter("reqs_total", {{"vm", "a"}}, "Total requests")->add(3);
  reg.gauge("temp")->set(-5);
  Histogram* h = reg.histogram("lat", {10, 20});
  h->observe(5);
  h->observe(10);
  h->observe(15);
  h->observe(25);
  EXPECT_EQ(reg.to_prometheus(2'500'000),
            "# HELP reqs_total Total requests\n"
            "# TYPE reqs_total counter\n"
            "reqs_total{vm=\"a\"} 3 2500\n"
            "# HELP temp (no help)\n"
            "# TYPE temp gauge\n"
            "temp -5 2500\n"
            "# HELP lat (no help)\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"10\"} 2 2500\n"
            "lat_bucket{le=\"20\"} 3 2500\n"
            "lat_bucket{le=\"+Inf\"} 4 2500\n"
            "lat_sum 55 2500\n"
            "lat_count 4 2500\n");
}

TEST(Export, PrometheusHeaderOncePerFamily) {
  Registry reg;
  reg.gauge("ram", {{"host", "a"}})->set(1);
  reg.gauge("ram", {{"host", "b"}})->set(2);
  std::string text = reg.to_prometheus(0);
  EXPECT_EQ(text.find("# TYPE ram gauge"), text.rfind("# TYPE ram gauge"));
}

TEST(Export, SnapshotsJsonExactWithLateRegistration) {
  Registry reg;
  stats::Counter* c = reg.counter("c");
  c->add(1);
  reg.record_snapshot(1000);
  stats::Gauge* g = reg.gauge("g");
  g->set(7);
  c->add(1);
  reg.record_snapshot(2000);
  EXPECT_EQ(reg.snapshots_json(),
            "{\n"
            "  \"series\": [\n"
            "    {\"name\": \"c\", \"kind\": \"counter\", \"labels\": {}},\n"
            "    {\"name\": \"g\", \"kind\": \"gauge\", \"labels\": {}}\n"
            "  ],\n"
            "  \"snapshots\": [\n"
            "    {\"t_usec\": 1000, \"values\": [1]},\n"
            "    {\"t_usec\": 2000, \"values\": [2, 7]}\n"
            "  ]\n"
            "}\n");
}

TEST(Export, HistogramSnapshotRowIsCumulative) {
  Registry reg;
  Histogram* h = reg.histogram("lat", {10, 20}, {}, "");
  h->observe(5);
  h->observe(15);
  reg.record_snapshot(0);
  // Row: cumulative per bound, cumulative total, count, sum.
  std::string json = reg.snapshots_json();
  EXPECT_NE(json.find("\"bounds\": [10, 20]"), std::string::npos);
  EXPECT_NE(json.find("\"values\": [[1, 2, 2, 2, 20]]"), std::string::npos);
}

// --- histogram edge cases ----------------------------------------------

TEST(Histogram, EmptyExportsAllZeroes) {
  Registry reg;
  reg.histogram("lat", {1, 2});
  EXPECT_EQ(reg.to_prometheus(0),
            "# HELP lat (no help)\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 0 0\n"
            "lat_bucket{le=\"2\"} 0 0\n"
            "lat_bucket{le=\"+Inf\"} 0 0\n"
            "lat_sum 0 0\n"
            "lat_count 0 0\n");
}

TEST(Histogram, BoundariesAreInclusiveUpperEdges) {
  Histogram h({0, 10});
  h.observe(-1);  // below the first bound -> first bucket
  h.observe(0);   // exactly the first bound -> first bucket
  h.observe(10);  // exactly the second bound -> second bucket
  h.observe(11);  // past every bound -> overflow
  EXPECT_EQ(h.cumulative(0), 2u);  // <= 0
  EXPECT_EQ(h.cumulative(1), 3u);  // <= 10
  EXPECT_EQ(h.cumulative(2), 4u);  // total
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 20);  // -1 + 0 + 10 + 11 — negatives subtract exactly
}

TEST(Histogram, SaturatesInsteadOfWrapping) {
  Histogram h({10});
  h.observe_n(5, kMax - 1);
  h.observe_n(5, kMax - 1);  // would wrap; must clamp
  EXPECT_EQ(h.count(), kMax);
  EXPECT_EQ(h.cumulative(0), kMax);
  h.observe(5);  // further observations keep it pinned
  EXPECT_EQ(h.count(), kMax);
  // Sum clamps on the n*value multiply too — at the signed ceiling.
  Histogram s({10});
  s.observe_n(std::numeric_limits<std::int64_t>::max(), 1000);
  EXPECT_EQ(s.sum(), std::numeric_limits<std::int64_t>::max());
}

TEST(HistogramDeathTest, UnsortedBoundsDie) {
  EXPECT_DEATH(Histogram({20, 10}), "ascending");
  EXPECT_DEATH(Histogram({10, 10}), "distinct");
}

// --- health model ------------------------------------------------------

TEST(HealthModel, FirstObservationPrimes) {
  MigrationHealthModel model;
  MigrationObservation obs;
  obs.now = 1'000'000;
  obs.bytes_transferred = 500;
  obs.pages_owed = 10;
  MigrationHealth h = model.update(obs);
  EXPECT_EQ(h.transfer_rate_bps, 0);
  EXPECT_EQ(h.page_drain_rate, 0);
  EXPECT_EQ(h.eta_usec, -1);
  EXPECT_EQ(h.projected_downtime_usec, -1);
}

TEST(HealthModel, WindowedRatesAndProjections) {
  MigrationHealthModel model;
  MigrationObservation obs;
  obs.now = 0;
  obs.bytes_transferred = 0;
  obs.pages_owed = 10;
  obs.wire_page_bytes = 100;
  obs.cpu_state_bytes = 200;
  model.update(obs);

  obs.now = 1'000'000;  // one second later
  obs.bytes_transferred = 1000;
  obs.pages_owed = 5;
  obs.backlog_bytes = 0;
  MigrationHealth h = model.update(obs);
  EXPECT_EQ(h.transfer_rate_bps, 1000);
  EXPECT_EQ(h.page_drain_rate, 5);
  // ETA: (5 pages * 100 B) / 1000 B/s = 0.5 s.
  EXPECT_EQ(h.eta_usec, 500'000);
  // Stop-and-copy now: (5 * 100 + 200) / 1000 B/s = 0.7 s.
  EXPECT_EQ(h.projected_downtime_usec, 700'000);
}

TEST(HealthModel, DirtyBurstZeroesDrainRateNotNegative) {
  MigrationHealthModel model;
  MigrationObservation obs;
  obs.now = 0;
  obs.pages_owed = 5;
  model.update(obs);
  obs.now = 1'000'000;
  obs.pages_owed = 50;  // debt grew
  MigrationHealth h = model.update(obs);
  EXPECT_EQ(h.page_drain_rate, 0);
  EXPECT_EQ(h.eta_usec, -1);  // no transfer observed either
}

TEST(HealthModel, ActualDowntimeOverridesModelAfterSwitchover) {
  MigrationHealthModel model;
  MigrationObservation obs;
  obs.now = 0;
  model.update(obs);
  obs.now = 1'000'000;
  obs.bytes_transferred = 4096;
  obs.switched_over = true;
  obs.downtime_usec = 123'456;
  MigrationHealth h = model.update(obs);
  EXPECT_EQ(h.projected_downtime_usec, 123'456);
}

// --- write paths -------------------------------------------------------

TEST(Write, CreatesParentDirectories) {
  Registry reg;
  reg.counter("c")->add(1);
  reg.record_snapshot(0);
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "agile_stats_test_dirs";
  std::filesystem::remove_all(dir);
  std::string path = (dir / "a" / "b" / "out.json").string();
  EXPECT_TRUE(reg.write_snapshots_json(path).is_ok());
  EXPECT_EQ(slurp(path), reg.snapshots_json());
  EXPECT_TRUE(reg.write_prometheus(path + ".prom", 0).is_ok());
  EXPECT_EQ(slurp(path + ".prom"), reg.to_prometheus(0));
  std::filesystem::remove_all(dir);
}

TEST(Write, FailureWarnsAndReturnsError) {
  Registry reg;
  reg.counter("c");
  // Parent "directory" is a regular file, so create_directories and fopen
  // both fail — the export must warn loudly, not vanish.
  std::filesystem::path file =
      std::filesystem::temp_directory_path() / "agile_stats_test_blocker";
  { std::ofstream(file.string()) << "x"; }
  std::string path = (file / "out.json").string();
  testing::internal::CaptureStderr();
  Status st = reg.write_snapshots_json(path);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(err.find("stats: cannot open"), std::string::npos);
  EXPECT_NE(err.find("json export dropped"), std::string::npos);
  std::filesystem::remove(file);
}

// --- end-to-end determinism --------------------------------------------

// Instrumented scenario exports are a pure function of (options, seed): two
// fresh processes-worth of state in one test — build, run, export, twice —
// must agree byte-for-byte. Lane-count and job-count invariance is covered
// by the bench_smoke_stats_* ctest legs; the AGILE_AUDIT=1 rerun of this
// binary covers audit invariance of the in-process path.
TEST(EndToEnd, SingleVmRunTwiceIsByteIdentical) {
  auto run = [] {
    core::scenarios::SingleVmOptions opt;
    opt.technique = core::Technique::kAgile;
    opt.host_ram = 1_GiB;
    opt.vm_memory = 512_MiB;
    opt.guest_os = 32_MiB;
    opt.free_margin = 64_MiB;
    opt.stats = true;
    core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
    sc.prepare();
    sc.run_migration();
    EXPECT_TRUE(sc.migration->metrics().completed);
    return sc.registry->snapshots_json() +
           sc.registry->to_prometheus(sc.bed->cluster().simulation().now());
  };
  std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("agile_migration_phase"), std::string::npos);
  EXPECT_NE(first.find("agile_vm_resident_pages"), std::string::npos);
}

}  // namespace

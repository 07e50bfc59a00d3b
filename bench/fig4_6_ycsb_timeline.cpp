// Figures 4, 5, 6 — average YCSB throughput across four VMs while one VM is
// migrated to relieve memory pressure, for pre-copy, post-copy and Agile.
// Also prints the §V-A recovery-to-90% row (paper: 533 / 294 / 215 s).
//
// Setup (paper §V-A): source & dest hosts with 23 GB RAM; four 10 GB / 2 vCPU
// VMs with 5.5 GB reservations, each a 9 GB Redis dataset queried by an
// external YCSB client. Phase 1: 200 MB active per client. From t=150 s the
// active set of one more VM ramps to 6 GB every 50 s. One VM migrates at
// t=400 s.
#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
using core::Technique;
namespace scen = core::scenarios;

namespace {

struct RunResult {
  metrics::TimeSeries avg;
  migration::MigrationMetrics migration;
  double peak = 0;
  double recovery_s = -1;  ///< From migration start to 90% of peak.
};

RunResult run_technique(Technique technique, double horizon_s,
                        SimTime migrate_at) {
  scen::ConsolidationOptions opt;
  opt.technique = technique;
  if (bench::quick_mode()) {
    opt.host_ram = 3_GiB;
    opt.vm_memory = 1_GiB;
    opt.reservation = 563_MiB;
    opt.dataset = 920_MiB;
    opt.guest_os = 20_MiB;
    opt.initial_active = 20_MiB;
    opt.ramped_active = 614_MiB;
  }
  scen::Consolidation sc = scen::make_consolidation(opt);
  sc.load_all();
  sc.schedule_ramp(bench::quick_mode() ? sec(15) : sec(150),
                   bench::quick_mode() ? sec(5) : sec(50));
  sc.schedule_migration(migrate_at);
  sc.bed->cluster().run_for_seconds(horizon_s);
  bench::record_run(sc.bed->cluster().events_executed_total());
  if (!sc.migration->completed()) bench::record_incomplete_run();

  RunResult r;
  r.avg = sc.average_throughput();
  r.migration = sc.migration->metrics();
  double t_mig = to_seconds(migrate_at);
  r.peak = r.avg.max_between(0, t_mig);
  double reached = r.avg.time_to_reach(0.9 * r.peak, t_mig, 5.0);
  if (reached >= 0) r.recovery_s = reached - t_mig;
  return r;
}

}  // namespace

int main() {
  bench::banner("Figures 4-6: avg YCSB throughput through migration");
  const bool quick = bench::quick_mode();
  const double horizon = quick ? 300 : 1100;
  const SimTime migrate_at = quick ? sec(40) : sec(400);

  struct Row {
    Technique technique;
    const char* label;
    const char* fig;
  };
  const Row rows[] = {{Technique::kPrecopy, "pre-copy", "fig4"},
                      {Technique::kPostcopy, "post-copy", "fig5"},
                      {Technique::kAgile, "agile", "fig6"}};

  // The three techniques are independent runs; fan them across the pool and
  // print in the fixed figure order afterwards.
  std::vector<Row> row_points(std::begin(rows), std::end(rows));
  bench::ParallelSweep sweep;
  std::vector<RunResult> results = sweep.map(row_points, [&](const Row& row) {
    return run_technique(row.technique, horizon, migrate_at);
  });

  metrics::Table table({"figure", "technique", "peak (ops/s)",
                        "migration time (s)", "downtime (ms)",
                        "recovery to 90% (s)"});
  std::string dir = bench::out_dir();
  for (std::size_t i = 0; i < row_points.size(); ++i) {
    const Row& row = row_points[i];
    RunResult& r = results[i];
    table.add_row({row.fig, row.label, metrics::Table::num(r.peak, 0),
                   bench::migration_time_cell(r.migration),
                   metrics::Table::num(
                       static_cast<double>(r.migration.downtime) / 1000.0, 0),
                   r.recovery_s < 0 ? "n/a" : metrics::Table::num(r.recovery_s, 0)});
    bench::check_output(metrics::write_series_csv(
        dir + "/" + row.fig + "_" + row.label + ".csv", {&r.avg}));
    // Paper-style timeline: one row per 10 s.
    std::printf("\n%s (%s) timeline, ops/s every 20 s:\n", row.fig, row.label);
    for (double t = 0; t <= horizon; t += quick ? 10 : 20) {
      std::printf("  t=%5.0fs  %8.0f\n", t, r.avg.value_at(t));
    }
  }
  std::printf("\n%s\n", table.to_string().c_str());
  bench::note("Paper reference: migration time 470/247/108 s; recovery to 90% "
              "533/294/215 s (pre/post/agile).");
  bench::note("CSV series written to " + dir);
  bench::footer("fig4_6_ycsb_timeline");
  return 0;
}

// Tables I–III — the §V-C consolidation experiment: four 10 GB VMs on a
// 23 GB source host (YCSB/Redis or Sysbench/MySQL), one VM migrated to
// relieve memory pressure, once per technique. The paper reports three views
// of the same six runs, so one sweep prints all three tables:
//
//   Table I — average application performance across all 4 VMs during the
//   migration window, YCSB/Redis (ops/s) and Sysbench OLTP (trans/s).
//     YCSB/Redis:  pre-copy 7653, post-copy 14926, Agile 17112
//     Sysbench:    pre-copy 59.84, post-copy 74.74, Agile 89.55
//   Table II — total migration time (s).
//     YCSB/Redis:  pre-copy 470, post-copy 247, Agile 108
//     Sysbench:    pre-copy 182.66, post-copy 157.56, Agile 80.37
//   Table III — data transferred over the migration channel (MB).
//     YCSB/Redis:  pre-copy 15029, post-copy 10268, Agile 8173
//     Sysbench:    pre-copy 11298, post-copy 10268, Agile 7757
#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
namespace scen = core::scenarios;

namespace {

/// One sweep point. Tables iterate app (outer) × technique (inner);
/// `consolidation_points` keeps that order, so point `i` is row `i / 3`,
/// column `i % 3`.
struct ConsolidationPoint {
  core::Technique technique;
  scen::AppKind app;
};

struct ConsolidationRun {
  migration::MigrationMetrics migration;
  double avg_perf = 0;  ///< Mean throughput of all 4 VMs over the window.
};

std::vector<ConsolidationPoint> consolidation_points() {
  std::vector<ConsolidationPoint> points;
  for (scen::AppKind app : {scen::AppKind::kYcsb, scen::AppKind::kOltp}) {
    for (core::Technique technique :
         {core::Technique::kPrecopy, core::Technique::kPostcopy,
          core::Technique::kAgile}) {
      points.push_back({technique, app});
    }
  }
  return points;
}

ConsolidationRun run_consolidation(const ConsolidationPoint& pt) {
  const bool quick = bench::quick_mode();
  bench::note(std::string("  [consolidation_") +
              core::technique_name(pt.technique) + "_" +
              (pt.app == scen::AppKind::kYcsb ? "ycsb" : "oltp") +
              (quick ? "_quick" : "") + "] running...");

  scen::ConsolidationOptions opt;
  opt.technique = pt.technique;
  opt.app = pt.app;
  if (quick) {
    opt.host_ram = 3_GiB;
    opt.vm_memory = 1_GiB;
    opt.reservation = 563_MiB;
    opt.dataset = pt.app == scen::AppKind::kYcsb ? 920_MiB : 820_MiB;
    opt.guest_os = 20_MiB;
    opt.initial_active = 20_MiB;
    opt.ramped_active = 614_MiB;
  } else if (pt.app == scen::AppKind::kOltp) {
    opt.dataset = 8_GiB;  // paper: 8 GB MySQL dataset per VM
    opt.guest_os = 300_MiB;
  }

  scen::Consolidation sc = scen::make_consolidation(opt);
  sc.load_all();

  SimTime migrate_at;
  double window_s;
  if (pt.app == scen::AppKind::kYcsb) {
    // §V-A script: ramp from t=150 s, migrate at t=400 s.
    sc.schedule_ramp(quick ? sec(15) : sec(150), quick ? sec(5) : sec(50));
    migrate_at = quick ? sec(40) : sec(400);
    window_s = quick ? 120 : 300;
  } else {
    // Sysbench runs at full intensity throughout; measure a 300 s window
    // starting at the migration.
    migrate_at = quick ? sec(20) : sec(60);
    window_s = quick ? 120 : 300;
  }
  sc.schedule_migration(migrate_at);

  double t_mig = to_seconds(migrate_at);
  double horizon = t_mig + window_s;
  sc.bed->cluster().run_for_seconds(horizon);
  // Make sure the migration itself finished (pre-copy can outlast the window).
  double guard = sc.bed->cluster().now_seconds() + (quick ? 1200 : 7200);
  while (!sc.migration->completed() &&
         sc.bed->cluster().now_seconds() < guard) {
    sc.bed->cluster().run_for_seconds(5);
  }

  bench::record_run(sc.bed->cluster().events_executed_total());
  ConsolidationRun result;
  result.migration = sc.migration->metrics();
  result.avg_perf =
      sc.average_throughput().mean_between(t_mig, t_mig + window_s);
  return result;
}

}  // namespace

int main() {
  bench::banner("Tables I-III: 4-VM consolidation under memory pressure");
  std::vector<ConsolidationPoint> points = consolidation_points();
  bench::ParallelSweep sweep;
  std::vector<ConsolidationRun> runs = sweep.map(points, run_consolidation);

  const std::vector<std::string> header = {
      "workload", "pre-copy", "post-copy", "agile", "paper (pre/post/agile)"};
  metrics::Table table1(header), table2(header), table3(header);
  for (std::size_t i = 0; i < points.size(); i += 3) {
    const bool ycsb = points[i].app == scen::AppKind::kYcsb;
    std::vector<std::string> perf_row = {ycsb ? "YCSB/Redis (ops/s)"
                                              : "Sysbench (trans/s)"};
    std::vector<std::string> time_row = {ycsb ? "YCSB/Redis" : "Sysbench"};
    std::vector<std::string> data_row = time_row;
    for (std::size_t j = 0; j < 3; ++j) {
      const ConsolidationRun& r = runs[i + j];
      perf_row.push_back(metrics::Table::num(r.avg_perf, ycsb ? 0 : 2));
      time_row.push_back(
          r.migration.completed
              ? metrics::Table::num(to_seconds(r.migration.total_time()), 1)
              : "DNF");
      data_row.push_back(
          metrics::Table::num(to_mib(r.migration.bytes_transferred), 0));
    }
    perf_row.push_back(ycsb ? "7653 / 14926 / 17112" : "59.84 / 74.74 / 89.55");
    time_row.push_back(ycsb ? "470 / 247 / 108" : "182.66 / 157.56 / 80.37");
    data_row.push_back(ycsb ? "15029 / 10268 / 8173" : "11298 / 10268 / 7757");
    table1.add_row(perf_row);
    table2.add_row(time_row);
    table3.add_row(data_row);
  }

  std::printf("\nTable I: average application performance during migration\n"
              "%s\n",
              table1.to_string().c_str());
  table1.write_csv(bench::out_dir() + "/table1_app_performance.csv");
  bench::note("Expected ordering: agile > post-copy > pre-copy on both rows.");

  std::printf("\nTable II: total migration time (s)\n%s\n",
              table2.to_string().c_str());
  table2.write_csv(bench::out_dir() + "/table2_migration_time.csv");
  bench::note("Expected ordering: agile fastest; pre-copy slowest (~4x agile "
              "on YCSB in the paper).");

  std::printf("\nTable III: amount of data transferred (MB)\n%s\n",
              table3.to_string().c_str());
  table3.write_csv(bench::out_dir() + "/table3_data_transferred.csv");
  bench::note("Expected ordering: pre-copy most (retransmits), agile least "
              "(cold pages never cross the wire).");
  bench::footer("table1_app_performance");
  return 0;
}

// Figure 10 — YCSB client throughput while the reservation controller of
// Figure 9 dynamically resizes the VM's memory reservation. Transient dips
// appear when the controller undershoots; the client recovers quickly.
#include "bench_common.hpp"
#include "core/scenarios.hpp"

using namespace agile;
namespace scen = core::scenarios;

int main() {
  bench::banner("Figure 10: YCSB throughput under dynamic reservation");
  const bool quick = bench::quick_mode();

  scen::WssTrackingOptions opt;
  if (quick) {
    opt.host_ram = 8_GiB;
    opt.vm_memory = 2_GiB;
    opt.initial_reservation = 2_GiB;
    opt.dataset = 512_MiB;
    opt.guest_os = 64_MiB;
  }
  scen::WssTracking sc = scen::make_wss_tracking(opt);
  sc.load();

  // A short untracked lead-in establishes the baseline throughput.
  const double lead_in = quick ? 30 : 60;
  sc.bed->cluster().run_for_seconds(lead_in);
  sc.controller->start();
  const double horizon = quick ? 300 : 900;
  sc.bed->cluster().run_for_seconds(horizon - lead_in);
  bench::record_run(sc.bed->cluster().events_executed_total());

  const metrics::TimeSeries& tput = sc.probe->series();
  double baseline = tput.mean_between(5, lead_in);
  double tracked = tput.mean_between(lead_in, horizon);
  double worst = baseline;
  for (const metrics::Sample& s : tput.samples()) {
    if (s.t > lead_in && s.value < worst) worst = s.value;
  }

  std::printf("\nYCSB throughput (ops/s):\n");
  for (double t = 0; t <= horizon; t += quick ? 10 : 30) {
    std::printf("  t=%5.0fs  %8.0f\n", t, tput.value_at(t));
  }

  metrics::Table table({"metric", "value"});
  table.add_row({"baseline ops/s (untracked)", metrics::Table::num(baseline, 0)});
  table.add_row({"mean ops/s while tracked", metrics::Table::num(tracked, 0)});
  table.add_row({"overhead (%)",
                 metrics::Table::num(100.0 * (baseline - tracked) /
                                         std::max(baseline, 1.0), 1)});
  table.add_row({"worst 1 s dip (ops/s)", metrics::Table::num(worst, 0)});
  std::printf("\n%s\n", table.to_string().c_str());

  metrics::write_series_csv(bench::out_dir() + "/fig10_wss_ycsb.csv", {&tput});
  bench::note("Expected shape: throughput near baseline with brief dips right "
              "after reservation shrinks; quick recovery each time.");
  bench::footer("fig10_wss_ycsb");
  return 0;
}

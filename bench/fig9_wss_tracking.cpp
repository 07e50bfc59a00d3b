// Figure 9 — dynamic working-set-size tracking: the controller's reservation
// converging onto the true working set of a VM holding a 1.5 GB Redis
// dataset (host 128 GB; α=0.95, β=1.03, τ=4 KB/s, 2 s → 30 s cadence).
#include "bench_common.hpp"
#include "core/scenarios.hpp"

using namespace agile;
namespace scen = core::scenarios;

int main() {
  bench::banner("Figure 9: dynamic WSS tracking");
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
  sc.controller->start();

  const double horizon = quick ? 300 : 900;
  sc.bed->cluster().run_for_seconds(horizon);
  bench::record_run(sc.bed->cluster().events_executed_total());

  const metrics::TimeSeries& res = sc.controller->reservation_series();
  const metrics::TimeSeries& rate = sc.controller->swap_rate_series();
  Bytes true_ws = opt.dataset + opt.guest_os;

  std::printf("\nreservation vs true working set (%0.f MiB):\n",
              to_mib(true_ws));
  for (double t = 0; t <= horizon; t += quick ? 10 : 30) {
    std::printf("  t=%5.0fs  reservation %7.0f MiB   swap rate %10.0f B/s\n", t,
                res.value_at(t) / (1024.0 * 1024.0), rate.value_at(t));
  }

  metrics::Table table({"metric", "value"});
  double final_mib = res.value_at(horizon) / (1024.0 * 1024.0);
  table.add_row({"true working set (MiB)", metrics::Table::num(to_mib(true_ws), 0)});
  table.add_row({"final reservation (MiB)", metrics::Table::num(final_mib, 0)});
  table.add_row({"tracking error (%)",
                 metrics::Table::num(
                     100.0 * (final_mib - to_mib(true_ws)) / to_mib(true_ws), 1)});
  table.add_row({"adjustments", std::to_string(sc.controller->adjustments())});
  table.add_row({"stable (30 s cadence)", sc.controller->stable() ? "yes" : "no"});
  std::printf("\n%s\n", table.to_string().c_str());

  std::string dir = bench::out_dir();
  bench::check_output(
      metrics::write_series_csv(dir + "/fig9_wss_tracking.csv", {&res, &rate}));
  bench::note("Expected shape: reservation decays from the 5 GB initial value "
              "to just above the ~1.7 GB working set, then holds.");
  bench::footer("fig9_wss_tracking");
  return 0;
}

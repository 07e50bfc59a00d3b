// Figures 7–8 — total migration time (Fig. 7) and data transferred (Fig. 8)
// vs VM memory size (2–12 GB) on a 6 GB host, for an idle and a busy VM,
// under pre-copy, post-copy and Agile. The paper derives both figures from
// the same experiments, so one sweep prints both tables.
//
// Expected shape, Fig. 7 (paper §V-B1): pre/post-copy grow with VM size and
// jump once the VM exceeds host memory (swap-ins, thrashing — much worse
// busy); Agile stays flat past 6 GB because it never touches the swapped
// pages.
//
// Expected shape, Fig. 8 (paper §V-B2): pre/post-copy transfer the whole VM,
// so the curves are linear in VM size (pre-copy busy steepest: dirty
// retransmits); Agile transfers only the in-memory part, constant ≈ 5.5 GB
// past 6 GB.
#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"
#include "util/log.hpp"

using namespace agile;
using core::Technique;

namespace {

/// One sweep point. Figures iterate busy (outer), size, technique (inner);
/// `single_vm_points` keeps that order so tables keep their historical row
/// order.
struct SingleVmPoint {
  Technique technique;
  Bytes size;
  bool busy;
};

std::vector<SingleVmPoint> single_vm_points() {
  const std::vector<Bytes> sizes =
      bench::quick_mode()
          ? std::vector<Bytes>{512_MiB, 1_GiB, 2_GiB}
          : std::vector<Bytes>{2_GiB, 4_GiB, 6_GiB, 8_GiB, 10_GiB, 12_GiB};
  std::vector<SingleVmPoint> points;
  for (bool busy : {false, true}) {
    for (Bytes size : sizes) {
      for (Technique technique :
           {Technique::kPrecopy, Technique::kPostcopy, Technique::kAgile}) {
        points.push_back({technique, size, busy});
      }
    }
  }
  return points;
}

/// Migrates a single idle or busy VM off a 6 GB host (1 GB in quick mode).
migration::MigrationMetrics run_single_vm(const SingleVmPoint& pt) {
  const bool quick = bench::quick_mode();
  char key[128];
  std::snprintf(key, sizeof(key), "singlevm_%s_%llumib_%s%s",
                core::technique_name(pt.technique),
                static_cast<unsigned long long>(pt.size >> 20),
                pt.busy ? "busy" : "idle", quick ? "_quick" : "");
  bench::note("  [" + std::string(key) + "] running...");
  core::scenarios::SingleVmOptions opt;
  opt.technique = pt.technique;
  opt.host_ram = quick ? 1_GiB : 6_GiB;
  opt.vm_memory = pt.size;
  opt.busy = pt.busy;
  if (quick) {
    opt.guest_os = 32_MiB;
    opt.free_margin = 64_MiB;
  }
  opt.trace = !bench::trace_stem().empty();
  opt.stats = !bench::stats_stem().empty();
  core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
  sc.prepare();
  sc.run_migration();
  bench::record_run(sc.bed->cluster().events_executed_total());
  if (!sc.migration->metrics().completed) bench::record_incomplete_run();
  if (sc.session != nullptr) {
    Status st = sc.session->recorder().write_chrome_json(
        bench::trace_stem() + "." + key + ".json");
    if (!st.is_ok()) AGILE_LOG_WARN("%s", st.message().c_str());
  }
  if (sc.registry != nullptr) {
    bench::write_run_stats(*sc.registry, key,
                           sc.bed->cluster().simulation().now());
  }
  return sc.migration->metrics();
}

}  // namespace

int main() {
  bench::banner("Figures 7-8: migration time and data transferred vs VM size");
  std::vector<SingleVmPoint> points = single_vm_points();
  bench::ParallelSweep sweep;
  std::vector<migration::MigrationMetrics> runs =
      sweep.map(points, run_single_vm);

  metrics::Table fig7({"VM size (GB)", "busy", "technique",
                       "migration time (s)", "downtime (ms)",
                       "swap-ins at source"});
  metrics::Table fig8({"VM size (GB)", "busy", "technique",
                       "data transferred (MB)", "full pages", "descriptors"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SingleVmPoint& pt = points[i];
    const migration::MigrationMetrics& m = runs[i];
    const std::string size = metrics::Table::num(to_gib(pt.size), 1);
    const char* busy = pt.busy ? "busy" : "idle";
    const char* technique = core::technique_name(pt.technique);
    fig7.add_row(
        {size, busy, technique,
         m.completed ? metrics::Table::num(to_seconds(m.total_time()), 1)
                     : "DNF",
         metrics::Table::num(static_cast<double>(m.downtime) / 1000.0, 0),
         std::to_string(m.pages_swapped_in_at_source)});
    fig8.add_row({size, busy, technique,
                  metrics::Table::num(to_mib(m.bytes_transferred), 0),
                  std::to_string(m.pages_sent_full),
                  std::to_string(m.pages_sent_descriptor)});
  }

  std::printf("\nFigure 7: total migration time vs VM size\n%s\n",
              fig7.to_string().c_str());
  fig7.write_csv(bench::out_dir() + "/fig7_migration_time.csv");
  bench::note("Expected shape: baselines grow with VM size (busy >> idle past "
              "host RAM); Agile flat once the VM exceeds host memory.");

  std::printf("\nFigure 8: data transferred vs VM size\n%s\n",
              fig8.to_string().c_str());
  fig8.write_csv(bench::out_dir() + "/fig8_data_transferred.csv");
  bench::note("Expected shape: baselines linear in VM size; Agile constant at "
              "~= the host-resident share once the VM exceeds host memory.");
  bench::footer("fig7_migration_time");
  return 0;
}

// Ablations of the design choices DESIGN.md calls out. Not a paper artifact;
// each section isolates one mechanism and shows why it is (or is not) load
// bearing.
//
//  A. Intermediate host count — the paper claims VMD performance "does not
//     depend on the number of intermediate nodes as long as they have enough
//     memory"; we sweep 1/2/4 servers.
//  B. Agile's SWAPPED descriptors — what if Agile had to send cold pages in
//     full (i.e. the per-VM device existed but the protocol didn't exploit
//     it)? Approximated by the post-copy baseline on the same pressured VM.
//  C. Send window — stream backlog cap vs migration time (too small starves
//     the link between scheduling quanta).
//  D. VMD disk tier — cold-page reads when the cluster's free memory runs
//     out and pages spill to intermediate-host disks.
//  E. Source eviction speed — how fast each technique actually frees the
//     source (scatter-gather, the authors' companion technique, is built
//     for exactly this).
//
// Sections share runs: A's one-server point is C's default send window and
// D's memory-only tier, and B's three protocols are E's pressured single-VM
// runs. Each distinct configuration therefore runs once across the shared
// ParallelSweep pool, and the tables print from the results in fixed order
// afterwards.
#include <algorithm>
#include <map>

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
using core::Technique;
namespace scen = core::scenarios;

namespace {

/// One pressured Agile run: VMD shape and stream send window.
struct AgilePoint {
  std::uint32_t vmd_servers;
  Bytes server_capacity;
  Bytes server_disk;
  Bytes send_window;
  auto operator<=>(const AgilePoint&) const = default;
};

migration::MigrationMetrics run_pressured_agile(const AgilePoint& point) {
  const bool quick = bench::quick_mode();
  core::TestbedConfig cfg;
  cfg.source.ram = quick ? 1_GiB : 2_GiB;
  cfg.source.host_os_bytes = 64_MiB;
  cfg.dest = cfg.source;
  cfg.dest.name = "dest";
  cfg.vmd_servers = point.vmd_servers;
  cfg.vmd_server_capacity = point.server_capacity;
  cfg.vmd_server_disk = point.server_disk;
  core::Testbed bed(cfg);

  core::VmSpec spec;
  spec.name = "vm0";
  spec.memory = quick ? 2_GiB : 4_GiB;
  spec.reservation = quick ? 768_MiB : 1536_MiB;
  spec.swap = core::SwapBinding::kPerVmDevice;
  core::VmHandle& h = bed.create_vm(spec);

  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = quick ? 1536_MiB : 3_GiB;
  ycfg.guest_os_bytes = 64_MiB;
  ycfg.active_bytes = quick ? 512_MiB : 1_GiB;
  ycfg.read_fraction = 0.8;
  auto load = std::make_unique<workload::YcsbWorkload>(
      h.machine, &bed.cluster().network(), bed.client_node(), ycfg,
      bed.make_rng("y"));
  auto* ycsb = load.get();
  bed.attach_workload(h, std::move(load));
  ycsb->load(0);
  bed.source()->ssd()->advance(sec(3600));
  bed.cluster().run_for_seconds(10);

  migration::MigrationConfig mig_cfg;
  mig_cfg.send_window = point.send_window;
  auto mig = bed.make_migration(Technique::kAgile, h, 0, mig_cfg);
  mig->start();
  double deadline = bed.cluster().now_seconds() + (quick ? 1200 : 3600);
  while (!mig->completed() && bed.cluster().now_seconds() < deadline) {
    bed.cluster().run_for_seconds(1);
  }
  // Post-migration: widen the active set so cold pages get demand-read from
  // wherever they live (memory tier or disk tier).
  std::uint64_t before = ycsb->ops_total();
  ycsb->set_active_bytes(quick ? 1_GiB : 3_GiB);
  bed.cluster().run_for_seconds(30);
  bench::record_run(bed.cluster().events_executed_total());
  if (!mig->completed()) bench::record_incomplete_run();
  migration::MigrationMetrics m = mig->metrics();
  // Smuggle the post-widen throughput out via a copy (cold-read throughput).
  m.pages_swap_faulted = (ycsb->ops_total() - before) / 30;
  return m;
}

migration::MigrationMetrics run_single_vm_pressured(Technique technique) {
  const bool quick = bench::quick_mode();
  scen::SingleVmOptions opt;
  opt.technique = technique;
  opt.host_ram = quick ? 1_GiB : 2_GiB;
  opt.vm_memory = quick ? 2_GiB : 4_GiB;
  opt.busy = true;
  if (quick) {
    opt.guest_os = 32_MiB;
    opt.free_margin = 64_MiB;
  }
  scen::SingleVm sc = scen::make_single_vm(opt);
  sc.prepare();
  sc.run_migration();
  bench::record_run(sc.bed->cluster().events_executed_total());
  if (!sc.migration->completed()) bench::record_incomplete_run();
  return sc.migration->metrics();
}

/// Runs each distinct point of `points` once across `sweep`; returns the
/// metrics keyed by point.
template <typename Point, typename Fn>
std::map<Point, migration::MigrationMetrics> run_distinct(
    bench::ParallelSweep& sweep, std::vector<Point> points, Fn&& fn) {
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::vector<migration::MigrationMetrics> runs = sweep.map(points, fn);
  std::map<Point, migration::MigrationMetrics> by_point;
  for (std::size_t i = 0; i < points.size(); ++i) by_point[points[i]] = runs[i];
  return by_point;
}

}  // namespace

int main() {
  bench::banner("Ablations: VMD server count, descriptors, send window, disk tier");
  const bool quick = bench::quick_mode();
  const Bytes pool_total = quick ? 4_GiB : 16_GiB;
  const Bytes default_window = migration::MigrationConfig{}.send_window;
  bench::ParallelSweep sweep;

  const std::vector<std::uint32_t> counts = {1, 2, 4};
  const std::vector<Bytes> windows = {1_MiB, 4_MiB, 16_MiB, 32_MiB, 64_MiB};
  struct TierPoint {
    const char* label;
    Bytes memory;
    Bytes disk;
  };
  const std::vector<TierPoint> tiers = {
      {quick ? "4 GiB memory" : "16 GiB memory", pool_total, 0},
      {quick ? "256 MiB memory + 4 GiB disk" : "1 GiB memory + 16 GiB disk",
       quick ? 256_MiB : 1_GiB, pool_total}};
  auto count_point = [&](std::uint32_t n) {
    return AgilePoint{n, pool_total / n, 0, default_window};
  };
  auto window_point = [&](Bytes window) {
    return AgilePoint{1, pool_total, 0, window};
  };
  auto tier_point = [&](const TierPoint& tier) {
    return AgilePoint{1, tier.memory, tier.disk, default_window};
  };
  std::vector<AgilePoint> agile_points;
  for (std::uint32_t n : counts) agile_points.push_back(count_point(n));
  for (Bytes w : windows) agile_points.push_back(window_point(w));
  for (const TierPoint& tier : tiers) agile_points.push_back(tier_point(tier));
  const std::vector<Technique> techniques = {
      Technique::kPrecopy, Technique::kPostcopy, Technique::kAgile,
      Technique::kScatterGather};
  const auto agile_runs = run_distinct(sweep, agile_points, run_pressured_agile);
  const auto single_runs =
      run_distinct(sweep, techniques, run_single_vm_pressured);

  // --- A: intermediate host count -----------------------------------------
  {
    metrics::Table t({"VMD servers", "migration time (s)", "wire (MiB)",
                      "post-migration cold-read ops/s"});
    for (std::uint32_t n : counts) {
      const auto& m = agile_runs.at(count_point(n));
      t.add_row({std::to_string(n), bench::migration_time_cell(m),
                 metrics::Table::num(to_mib(m.bytes_transferred), 0),
                 std::to_string(m.pages_swap_faulted)});
    }
    std::printf("\nA. Server-count independence (paper §V claim):\n%s",
                t.to_string().c_str());
  }

  // --- B: descriptors vs shipping cold pages ------------------------------
  {
    metrics::Table t({"protocol", "migration time (s)", "wire (MiB)"});
    for (Technique technique : {Technique::kAgile, Technique::kPostcopy,
                                Technique::kPrecopy}) {
      const auto& m = single_runs.at(technique);
      t.add_row({technique == Technique::kAgile
                     ? "agile (descriptors)"
                     : (technique == Technique::kPostcopy
                            ? "cold pages shipped once (post-copy)"
                            : "cold pages shipped + retransmits (pre-copy)"),
                 bench::migration_time_cell(m),
                 metrics::Table::num(to_mib(m.bytes_transferred), 0)});
    }
    std::printf("\nB. What the SWAPPED descriptor buys:\n%s", t.to_string().c_str());
  }

  // --- C: send window -------------------------------------------------------
  {
    metrics::Table t({"send window (MiB)", "migration time (s)"});
    for (Bytes window : windows) {
      t.add_row({metrics::Table::num(to_mib(window), 0),
                 bench::migration_time_cell(agile_runs.at(window_point(window)))});
    }
    std::printf("\nC. Stream send window (must cover a scheduling quantum of "
                "line rate):\n%s",
                t.to_string().c_str());
  }

  // --- E: source eviction speed --------------------------------------------
  {
    metrics::Table t({"technique", "source freed after (s)", "direct-channel (MiB)"});
    for (Technique technique : techniques) {
      const auto& m = single_runs.at(technique);
      t.add_row({core::technique_name(technique),
                 bench::migration_time_cell(m),
                 metrics::Table::num(to_mib(m.bytes_transferred), 0)});
    }
    std::printf("\nE. Time until the source host is deprovisioned:\n%s",
                t.to_string().c_str());
  }

  // --- D: VMD disk tier ------------------------------------------------------
  {
    metrics::Table t({"VMD config", "migration time (s)",
                      "post-migration cold-read ops/s"});
    for (const TierPoint& tier : tiers) {
      const auto& m = agile_runs.at(tier_point(tier));
      t.add_row({tier.label, bench::migration_time_cell(m),
                 std::to_string(m.pages_swap_faulted)});
    }
    std::printf("\nD. Disk-tier spill (paper §IV-A extension): migration is "
                "unaffected; cold reads slow down:\n%s",
                t.to_string().c_str());
  }
  bench::footer("ablation_design");
  return 0;
}

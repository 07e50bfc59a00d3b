// Datacenter topology: rack-aware placement + rebalancing vs rack-oblivious
// best-fit on one oversubscribed leaf-spine fabric.
//
// A spread fleet (two VMs per host, one hotspot VM on the first hosts of
// each rack) runs under the orchestrator and the FleetRebalancer for a long
// simulated horizon. Host RAM is sized so the hotspot never crosses the
// high watermark — every migration is a proactive rebalancer move, throttled
// through the orchestrator's admission path. Two sweep points share the
// fabric and differ only in policy:
//
//   oblivious   rack-oblivious best-fit placement and rebalancing — moves
//               land on whichever host is coolest, mostly across racks;
//   rack_aware  PlacementPolicy::kRackAware + FleetRebalancerConfig::
//               rack_aware — moves get first refusal inside the source rack.
//
// The verdict compares core-tier bytes (leaf up + leaf down): rack-aware
// policy must carry fewer migration bytes over the oversubscribed core, and
// the oblivious run must show measurable leaf-tier contention (peak
// utilization sampled over the run, not just the final quantum).
//
// Besides the usual table, the bench prints a TOPO_GOLDEN block of purely
// simulation-derived lines (rebalancer rounds, every move with its rack
// crossing, per-tier byte totals) and mirrors it to fleet_topology_golden.txt
// — byte-identical for a fixed seed at any AGILE_SIM_LANES, AGILE_BENCH_JOBS
// or AGILE_AUDIT setting, which bench_smoke_fleet_topology_determinism diffs.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
namespace scen = core::scenarios;

namespace {

struct Mode {
  const char* name;
  bool rack_aware;
};

struct TopoRun {
  std::string name;
  std::size_t moves = 0;
  std::size_t local_moves = 0;
  std::size_t cross_moves = 0;
  std::size_t swaps = 0;
  std::uint32_t throttled = 0;
  std::size_t rounds = 0;
  std::size_t decisions = 0;  ///< Watermark decisions (expected 0 here).
  Bytes core_bytes = 0;       ///< Leaf up + leaf down tier totals.
  Bytes host_bytes = 0;       ///< Host NIC up + down tier totals.
  double core_peak_util = 0;  ///< Max leaf-link utilization over the run.
  std::string golden;         ///< Deterministic per-mode block.
};

std::uint32_t fleet_hosts() { return bench::quick_mode() ? 16 : 256; }
std::uint32_t fleet_racks() { return bench::quick_mode() ? 4 : 8; }
double horizon_seconds() { return bench::quick_mode() ? 240 : 420; }

TopoRun run_mode(const Mode& mode) {
  const std::uint32_t hosts = fleet_hosts();
  const std::uint32_t racks = fleet_racks();

  scen::FleetOptions opt;
  opt.host_count = hosts;
  opt.vm_count = hosts * 2;  // two VMs per host once spread
  opt.racks = racks;
  opt.oversubscription = 4.0;
  opt.spread_initial = true;
  opt.hot_per_rack = true;
  // One hotspot VM on the first two hosts of each rack (quick) / first four
  // (full): the per-rack hot-host count is hot_vms / racks.
  opt.hot_vms = racks * (bench::quick_mode() ? 2 : 4);
  // After the estimate latch: every controller stabilizes on the quiet
  // fleet first (~40 s), then the hotspot destabilizes only the hungry VMs.
  opt.hot_at = sec(90);
  opt.hot_active = 640_MiB;
  // RAM sized so both resident VMs fit even at their reservation cap (no
  // host-level thrash — the controllers must settle for rounds to act) and
  // a hot host (OS + one widened + one cold estimate) stays well under the
  // 0.90 high watermark: the orchestrator never fires and every move below
  // is the rebalancer's, while a cold VM still fits a cold host under the
  // 0.75 low watermark.
  opt.source_ram = 2176_MiB;
  opt.dest_ram = 2176_MiB;
  // Keep background RPC traffic well below the oversubscribed leaf
  // capacity: the reservation controllers must be able to settle, and the
  // core-byte verdict should be dominated by migration streams.
  opt.ycsb_concurrency = 2;
  opt.rack_aware_placement = mode.rack_aware;
  opt.rebalance = true;
  opt.rebalancer_config.rack_aware = mode.rack_aware;
  opt.vmd_server_capacity = static_cast<Bytes>(hosts) * 2_GiB;
  opt.stats = !bench::stats_stem().empty();

  scen::Fleet fleet = scen::make_fleet(opt);
  fleet.load_all();
  fleet.orchestrator->start();
  fleet.rebalancer->start();

  // Run in slices so the leaf-tier peak is the maximum over the whole run
  // (TierTotals::peak_utilization only covers the last quantum).
  TopoRun run;
  run.name = mode.name;
  const net::Network& net = fleet.bed->cluster().network();
  const double horizon = horizon_seconds();
  for (double t = 0; t < horizon; t += 5.0) {
    fleet.bed->cluster().run_for_seconds(std::min(5.0, horizon - t));
    run.core_peak_util = std::max(
        run.core_peak_util,
        std::max(net.tier_totals(net::LinkTier::kLeafUp).peak_utilization,
                 net.tier_totals(net::LinkTier::kLeafDown).peak_utilization));
  }
  fleet.rebalancer->stop();
  fleet.orchestrator->stop();
  bench::record_run(fleet.bed->cluster().events_executed_total());
  if (fleet.registry != nullptr) {
    bench::write_run_stats(*fleet.registry, std::string("topo_") + mode.name,
                           fleet.bed->cluster().simulation().now());
  }

  std::map<std::string, std::uint32_t> rack_of;
  for (std::size_t i = 0; i < fleet.bed->host_count(); ++i) {
    rack_of[fleet.bed->host_at(i)->name()] = fleet.bed->rack_of_host(i);
  }

  run.decisions = fleet.orchestrator->decisions().size();
  char line[256];
  std::snprintf(line, sizeof(line),
                "TOPO_GOLDEN %s fleet hosts=%u racks=%u oversub=%.1f vms=%u "
                "hot=%u decisions=%zu\n",
                mode.name, hosts, racks, opt.oversubscription, opt.vm_count,
                opt.hot_vms, run.decisions);
  run.golden += line;

  for (const core::RebalanceRound& r : fleet.rebalancer->rounds()) {
    std::snprintf(line, sizeof(line),
                  "TOPO_GOLDEN %s round%u t=%.0f max=%lld min=%lld moves=%zu "
                  "throttled=%u balanced=%d\n",
                  mode.name, r.index, to_seconds(r.time),
                  static_cast<long long>(r.max_load_millis),
                  static_cast<long long>(r.min_load_millis), r.moves.size(),
                  r.throttled, r.balanced ? 1 : 0);
    run.golden += line;
    run.rounds += 1;
    run.throttled += r.throttled;
    for (const core::RebalanceMove& m : r.moves) {
      const std::uint32_t from_rack = rack_of[m.from];
      const std::uint32_t to_rack = rack_of[m.to];
      const bool cross = from_rack != to_rack;
      std::snprintf(line, sizeof(line),
                    "TOPO_GOLDEN %s   %s %s->%s wss_mib=%.0f rack%u->rack%u "
                    "%s%s\n",
                    mode.name, m.vm.c_str(), m.from.c_str(), m.to.c_str(),
                    to_mib(m.wss), from_rack, to_rack,
                    cross ? "cross" : "local", m.swap ? " swap" : "");
      run.golden += line;
      run.moves += 1;
      (cross ? run.cross_moves : run.local_moves) += 1;
      if (m.swap) run.swaps += 1;
    }
  }

  for (std::size_t t = 0; t < net::kLinkTierCount; ++t) {
    const auto tier = static_cast<net::LinkTier>(t);
    const net::TierTotals totals = net.tier_totals(tier);
    if (totals.links == 0) continue;
    if (tier == net::LinkTier::kLeafUp || tier == net::LinkTier::kLeafDown) {
      run.core_bytes += totals.bytes_total;
    } else {
      run.host_bytes += totals.bytes_total;
    }
    std::snprintf(line, sizeof(line),
                  "TOPO_GOLDEN %s tier %s links=%zu mib=%.0f\n", mode.name,
                  net::tier_name(tier), totals.links,
                  to_mib(totals.bytes_total));
    run.golden += line;
  }
  std::snprintf(line, sizeof(line),
                "TOPO_GOLDEN %s summary moves=%zu local=%zu cross=%zu "
                "swaps=%zu throttled=%u core_mib=%.0f\n",
                mode.name, run.moves, run.local_moves, run.cross_moves,
                run.swaps, run.throttled, to_mib(run.core_bytes));
  run.golden += line;
  return run;
}

}  // namespace

int main() {
  bench::banner("Fleet topology: rack-aware policy on a leaf-spine fabric");
  const std::vector<Mode> modes = {{"oblivious", false}, {"rack_aware", true}};
  bench::ParallelSweep sweep;
  std::vector<TopoRun> runs = sweep.map(modes, run_mode);

  metrics::Table table({"mode", "rounds", "moves", "local", "cross", "swaps",
                        "throttled", "core (MiB)", "host (MiB)",
                        "core peak %"});
  for (const TopoRun& r : runs) {
    table.add_row({r.name, std::to_string(r.rounds), std::to_string(r.moves),
                   std::to_string(r.local_moves),
                   std::to_string(r.cross_moves), std::to_string(r.swaps),
                   std::to_string(r.throttled),
                   metrics::Table::num(to_mib(r.core_bytes), 0),
                   metrics::Table::num(to_mib(r.host_bytes), 0),
                   metrics::Table::num(r.core_peak_util * 100, 1)});
  }
  std::printf("\n%s\n", table.to_string().c_str());
  bench::check_output(
      table.write_csv(bench::out_dir() + "/fleet_topology.csv"));

  std::string golden;
  for (const TopoRun& r : runs) golden += r.golden;
  bench::write_golden("fleet_topology", golden);

  const TopoRun& obl = runs[0];
  const TopoRun& aware = runs[1];
  bench::note("Expected: both modes launch the same rebalancer move count; "
              "oblivious moves land mostly cross-rack while rack-aware moves "
              "stay local, so the rack-aware run carries fewer core-tier "
              "(leaf) bytes; the oblivious run shows leaf-link contention "
              "from concurrent cross-rack migrations.");
  char verdict[512];
  std::snprintf(
      verdict, sizeof(verdict),
      "  \"hosts\": %u,\n"
      "  \"racks\": %u,\n"
      "  \"oblivious_moves\": %zu,\n"
      "  \"oblivious_cross_moves\": %zu,\n"
      "  \"rack_aware_moves\": %zu,\n"
      "  \"rack_aware_cross_moves\": %zu,\n"
      "  \"oblivious_core_mib\": %.0f,\n"
      "  \"rack_aware_core_mib\": %.0f,\n"
      "  \"core_mib_saved\": %.0f,\n"
      "  \"rack_aware_reduces_core_bytes\": %s,\n"
      "  \"oblivious_core_peak_util_pct\": %.1f,\n"
      "  \"core_contention_observed\": %s",
      fleet_hosts(), fleet_racks(), obl.moves, obl.cross_moves, aware.moves,
      aware.cross_moves, to_mib(obl.core_bytes), to_mib(aware.core_bytes),
      to_mib(obl.core_bytes) - to_mib(aware.core_bytes),
      obl.core_bytes > aware.core_bytes ? "true" : "false",
      obl.core_peak_util * 100,
      obl.core_peak_util >= 0.5 ? "true" : "false");
  bench::footer("fleet_topology", verdict);
  return 0;
}

// Fleet consolidation at scale — beyond the paper's two-host bed.
//
// N VMs consolidated on host 0 of a multi-host fleet; several working sets
// widen at once, one watermark decision selects multiple victims, and the
// MigrationOrchestrator launches them concurrently, spread best-fit across
// the destination hosts. One sweep point per technique.
//
// Besides the usual table, the bench prints a FLEET_GOLDEN block of purely
// simulation-derived lines (decisions, placements, overlap, bytes) and
// mirrors it to fleet_consolidation_golden.txt — byte-identical for a fixed
// seed at any AGILE_BENCH_JOBS, AGILE_SIM_LANES, AGILE_AUDIT or AGILE_STATS
// setting, which the bench_smoke_*_determinism compare tests diff.
#include <algorithm>
#include <string>

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
namespace scen = core::scenarios;

namespace {

struct FleetRun {
  core::Technique technique = core::Technique::kAgile;
  std::vector<core::FleetDecision> decisions;
  std::size_t migrations = 0;
  std::size_t completed = 0;
  std::size_t spread_dests = 0;   ///< Distinct destinations used overall.
  bool multi_overlap = false;     ///< ≥2 launches of one decision overlapped.
  double mean_total_s = 0;
  Bytes wire_bytes = 0;
  std::string golden;             ///< Deterministic per-technique block.
};

FleetRun run_fleet(core::Technique technique) {
  scen::FleetOptions opt;
  opt.technique = technique;
  if (!bench::quick_mode()) {
    opt.host_count = 4;
    opt.vm_count = 8;
    opt.hot_vms = 4;
    opt.source_ram = 3_GiB;
  }
  opt.stats = !bench::stats_stem().empty();
  scen::Fleet fleet = scen::make_fleet(opt);
  fleet.load_all();
  fleet.orchestrator->start();
  fleet.bed->cluster().run_for_seconds(bench::quick_mode() ? 400 : 500);
  fleet.orchestrator->stop();
  bench::record_run(fleet.bed->cluster().events_executed_total());
  if (fleet.registry != nullptr) {
    bench::write_run_stats(*fleet.registry,
                           std::string("fleet_") +
                               core::technique_name(technique),
                           fleet.bed->cluster().simulation().now());
  }

  FleetRun run;
  run.technique = technique;
  run.decisions = fleet.orchestrator->decisions();
  run.migrations = fleet.orchestrator->migrations_launched();

  std::vector<std::string> dests;
  double total_s = 0;
  for (const auto& m : fleet.orchestrator->migrations()) {
    if (m->completed()) {
      ++run.completed;
      total_s += to_seconds(m->metrics().total_time());
    }
    run.wire_bytes += m->metrics().bytes_transferred;
    dests.push_back(m->dest_host()->name());
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  run.spread_dests = dests.size();
  if (run.completed > 0) {
    run.mean_total_s = total_s / static_cast<double>(run.completed);
  }

  // Golden block: every number below is simulation-derived (no wall clock),
  // so the block is byte-identical for a fixed seed at any job count.
  char line[256];
  std::snprintf(line, sizeof(line), "FLEET_GOLDEN %s migrations=%zu dests=%zu\n",
                core::technique_name(technique), run.migrations,
                run.spread_dests);
  run.golden += line;
  for (std::size_t di = 0; di < run.decisions.size(); ++di) {
    const core::FleetDecision& d = run.decisions[di];
    std::snprintf(line, sizeof(line),
                  "FLEET_GOLDEN %s decision%zu t=%.0f src=%s victims=%zu "
                  "launched=%zu deferred=%u insufficient=%d\n",
                  core::technique_name(technique), di, to_seconds(d.time),
                  d.source_host.c_str(), d.trigger.victims.size(),
                  d.launches.size(), d.deferred, d.trigger.insufficient ? 1 : 0);
    run.golden += line;
    for (const core::FleetLaunch& l : d.launches) {
      std::snprintf(line, sizeof(line),
                    "FLEET_GOLDEN %s   %s->%s reserved_mib=%.0f\n",
                    core::technique_name(technique), l.vm.c_str(),
                    l.dest.c_str(), to_mib(l.reserved_wss));
      run.golden += line;
    }
  }
  // Concurrency proof: overlapping [start, end] windows within one decision.
  for (const core::FleetDecision& d : run.decisions) {
    if (d.launches.size() < 2) continue;
    SimTime max_start = -1, min_end = -1;
    std::size_t found = 0;
    for (const auto& m : fleet.orchestrator->migrations()) {
      for (const core::FleetLaunch& l : d.launches) {
        if (m->machine()->name() != l.vm || !m->completed()) continue;
        if (m->metrics().start_time + sec(1) < d.time) continue;
        ++found;
        max_start = std::max(max_start, m->metrics().start_time);
        min_end = min_end < 0 ? m->metrics().end_time
                              : std::min(min_end, m->metrics().end_time);
      }
    }
    if (found >= 2 && max_start < min_end) {
      run.multi_overlap = true;
      std::snprintf(line, sizeof(line),
                    "FLEET_GOLDEN %s overlap t=%.0f window=[%.1f,%.1f]\n",
                    core::technique_name(technique), to_seconds(d.time),
                    to_seconds(max_start), to_seconds(min_end));
      run.golden += line;
    }
  }
  std::snprintf(line, sizeof(line), "FLEET_GOLDEN %s wire_mib=%.0f\n",
                core::technique_name(technique), to_mib(run.wire_bytes));
  run.golden += line;
  return run;
}

}  // namespace

int main() {
  bench::banner("Fleet consolidation: concurrent watermark-driven migrations");
  const std::vector<core::Technique> techniques = {
      core::Technique::kPrecopy, core::Technique::kPostcopy,
      core::Technique::kAgile, core::Technique::kScatterGather};
  bench::ParallelSweep sweep;
  std::vector<FleetRun> runs = sweep.map(techniques, run_fleet);

  metrics::Table table({"technique", "decisions", "migrations", "completed",
                        "dests used", "multi-victim overlap", "mean time (s)",
                        "wire (MiB)"});
  for (const FleetRun& r : runs) {
    table.add_row({core::technique_name(r.technique),
                   std::to_string(r.decisions.size()),
                   std::to_string(r.migrations), std::to_string(r.completed),
                   std::to_string(r.spread_dests),
                   r.multi_overlap ? "yes" : "no",
                   metrics::Table::num(r.mean_total_s, 1),
                   metrics::Table::num(to_mib(r.wire_bytes), 0)});
  }
  std::printf("\n%s\n", table.to_string().c_str());
  table.write_csv(bench::out_dir() + "/fleet_consolidation.csv");

  std::string golden;
  for (const FleetRun& r : runs) golden += r.golden;
  bench::write_golden("fleet_consolidation", golden);

  bench::note("Expected: one decision launches >=2 concurrent migrations "
              "spread across >=2 destinations (overlap=yes for every "
              "technique); no destination crosses its low watermark.");
  bench::footer("fleet_consolidation");
  return 0;
}

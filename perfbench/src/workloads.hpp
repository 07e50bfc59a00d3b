// The benchmark's workloads. Each builds its scenario through the
// simulator's public API (core::scenarios, core::Testbed, host::Cluster
// hooks), times set-up and the simulated schedule from outside, and reads
// the simulated outcome back through public getters.
//
//   paper_sweep     §V-B (Figs. 7-8): one VM of 2..12 GiB, idle and busy, on
//                   a 6 GiB host, migrated by each of the four techniques —
//                   48 fresh migrations at 1 lane.
//   fleet_racks     128 hosts in 4 racks on a 4x oversubscribed leaf-spine
//                   core, two VMs per host, per-rack hotspots, rack-aware
//                   placement, the FleetRebalancer and a stats scrape every
//                   simulated second, at 2 lanes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

/// One execution of a workload's schedule.
struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;      ///< Keep the wall-time ledger and samplers.
  std::uint32_t lanes = 0;  ///< 0: the workload's own lane count.
  /// Fleets: set-ups timed in total; the extra ones are built, loaded and
  /// torn down before the one the schedule runs on.
  std::uint32_t setups = 1;
};

/// Counters read from public getters, as deltas over the timed schedule.
struct Counters {
  double ops = 0;  ///< Guest page touches (one YCSB op is one touch).
  double minor_faults = 0;
  double major_faults = 0;
  double swap_ins = 0;
  double swap_outs = 0;
  double clean_drops = 0;
  double vmd_reads = 0;   ///< Per-VM VMD namespace devices.
  double vmd_writes = 0;
  double swap_reads = 0;  ///< Host SSD swap partitions.
  double swap_writes = 0;
  double host_tier_bytes = 0;
  double core_tier_bytes = 0;
  double events = 0;  ///< Coordinator plus lane events.

  void add(const Counters& o, double sign = 1.0);
};

struct Execution {
  std::uint32_t lanes = 1;
  std::vector<double> setup_s;  ///< One entry per timed set-up.
  double build_ms = 0;  ///< Scenario construction (set-up the schedule ran on).
  double load_ms = 0;   ///< Dataset load (+ settle run for single-VM points).
  double run_s = 0;     ///< Timed schedule, drain included.

  // Simulated outcome.
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  double migration_s_sum = 0;  ///< Over completed migrations.
  double downtime_ms_sum = 0;  ///< Over completed migrations.
  double wire_mib = 0;         ///< bytes_transferred + bytes_scattered.
  double client_ops = 0;       ///< Over the workload's fixed client window.

  // Migration engines.
  double pages_full = 0;
  double pages_descriptor = 0;
  double demand_faults = 0;
  double swap_faults = 0;
  double source_swapins = 0;
  double duplicates = 0;
  double precopy_rounds = 0;
  /// Technique key -> (sum of simulated seconds, completed count).
  std::map<std::string, std::pair<double, double>> technique_time;

  // Orchestration.
  double decisions = 0;
  double decision_launches = 0;
  double deferrals = 0;
  double rebalance_rounds = 0;
  double rebalance_moves = 0;

  Counters counts;

  // Traced executions only.
  PhaseTotals phases;
  double stats_scrape_ns = 0;
  double own_events = 0;  ///< Benchmark samplers (excluded from counts.events).
  double vmd_pages_peak = 0;
  double flows_peak = 0;
  double core_peak_util = 0;  ///< 0..1, max over the once-a-second samples.

  std::string digest_text;  ///< Canonical simulated outcome.
  std::vector<std::string> failures;  ///< Validity / output checks failed.
};

const std::vector<std::string>& workload_names();
std::uint32_t default_lanes(const std::string& workload);

/// How an untraced run measures a workload: at least `repetitions`
/// executions of the schedule (run_s is their median), the first with
/// `first_setups` timed set-ups (setup_s is the median over every set-up).
struct RunPlan {
  std::uint32_t repetitions = 1;
  std::uint32_t first_setups = 1;
};
RunPlan run_plan(const std::string& workload);

Execution run_workload(const RunSpec& spec);

}  // namespace perfbench

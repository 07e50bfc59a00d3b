// Shared helpers for the per-figure/table benchmark binaries.
//
// Every bench prints the paper-style table on stdout and mirrors raw series
// into CSV files under bench_out/ (override with AGILE_BENCH_OUT). Knobs:
//
//   AGILE_BENCH_QUICK=1  scaled-down experiments (CI smoke mode — shapes
//                        still hold, absolute numbers shrink)
//   AGILE_BENCH_JOBS=N   worker threads for sweep execution (default:
//                        hardware concurrency; 1 forces serial in-thread)
//   AGILE_TRACE=out.json record a Chrome trace per run, written to
//                        out.json.<run-key>.json
//   AGILE_STATS=stem     record deterministic metrics snapshots per run,
//                        written to stem.<run-key>.stats.json (+ .stats.prom);
//                        byte-identical across reruns, lane counts and job
//                        counts (see src/stats)
//
// Every run is a fresh simulation: a binary that reports several views of
// one experiment (Figs. 7-8, Tables I-III) prints them all from one sweep.
// Each bench ends with a timing footer (see `footer`) so sweep speedups are
// measurable: wall-clock, jobs, runs executed, total simulation events and
// events/second.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "metrics/table.hpp"
#include "migration/migration.hpp"
#include "stats/stats.hpp"

namespace agile::bench {

/// Output directory, created once. Function-local static so concurrent sweep
/// workers never race on mkdir and repeated calls cost a load, not a stat.
inline const std::string& out_dir() {
  static const std::string dir = [] {
    const char* env = std::getenv("AGILE_BENCH_OUT");
    std::string d = env != nullptr ? env : "bench_out";
    metrics::ensure_dir(d);
    return d;
  }();
  return dir;
}

inline bool quick_mode() {
  const char* env = std::getenv("AGILE_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

/// Worker count for sweep execution: AGILE_BENCH_JOBS if set (floored at 1),
/// otherwise hardware concurrency.
inline unsigned sweep_jobs() {
  static const unsigned jobs = [] {
    if (const char* env = std::getenv("AGILE_BENCH_JOBS")) {
      long v = std::strtol(env, nullptr, 10);
      if (v >= 1) return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
  }();
  return jobs;
}

/// Trace output stem from AGILE_TRACE, or empty when tracing is off. Each
/// run appends its run key: `<stem>.<key>.json`.
inline const std::string& trace_stem() {
  static const std::string stem = [] {
    const char* env = std::getenv("AGILE_TRACE");
    return std::string(env != nullptr ? env : "");
  }();
  return stem;
}

/// Stats output stem from AGILE_STATS, or empty when stats are off. Each
/// run writes `<stem>.<key>.stats.json` (snapshots) and
/// `<stem>.<key>.stats.prom` (final Prometheus exposition).
inline const std::string& stats_stem() {
  static const std::string stem = [] {
    const char* env = std::getenv("AGILE_STATS");
    return std::string(env != nullptr ? env : "");
  }();
  return stem;
}

/// Writes one run's registry under the AGILE_STATS stem: snapshots JSON to
/// `<stem>.<key>.stats.json` and the final Prometheus exposition to
/// `<stem>.<key>.stats.prom`. Failures warn inside the registry's writer
/// (the Status is intentionally not re-raised on bench paths).
inline void write_run_stats(const stats::Registry& registry,
                            const std::string& key, stats::StatsTime now) {
  const std::string base = stats_stem() + "." + key + ".stats";
  (void)registry.write_snapshots_json(base + ".json");
  (void)registry.write_prometheus(base + ".prom", now);
}

/// Process-wide sweep accounting, fed by the runners and printed by `footer`.
/// The counters are commutative sums bumped from sweep workers, hence
/// atomics (relaxed order is enough: `footer` reads them after the sweep's
/// futures have joined). `wall_start` is deliberately plain — it is written
/// by `banner` before the pool fans out and read by `footer` after it joins,
/// both on the main thread.
struct SweepStats {
  std::atomic<std::uint64_t> runs_executed{0};
  std::atomic<std::uint64_t> runs_incomplete{0};
  std::atomic<std::uint64_t> sim_events{0};
  std::chrono::steady_clock::time_point wall_start =
      std::chrono::steady_clock::now();
};

inline SweepStats& sweep_stats() {
  static SweepStats stats;
  return stats;
}

/// Records one executed simulation and the events it ran
/// (coordinator plus lane events: `Cluster::events_executed_total`).
inline void record_run(std::uint64_t events_executed) {
  sweep_stats().runs_executed.fetch_add(1, std::memory_order_relaxed);
  sweep_stats().sim_events.fetch_add(events_executed,
                                     std::memory_order_relaxed);
}

/// Records a run whose migration hit the time limit without completing.
/// Tables print "n/a" for such points; the footer carries an `incomplete`
/// flag instead of leaking the -1 sentinel as a negative time.
inline void record_incomplete_run() {
  sweep_stats().runs_incomplete.fetch_add(1, std::memory_order_relaxed);
}

/// Migration-time table cell: "n/a" when the run never completed, in which
/// case `total_time()` is the -1 sentinel, not a duration.
inline std::string migration_time_cell(const migration::MigrationMetrics& m) {
  if (!m.completed) return "n/a";
  return metrics::Table::num(to_seconds(m.total_time()), 1);
}

inline void banner(const std::string& title) {
  sweep_stats().wall_start = std::chrono::steady_clock::now();
  std::printf("\n==== %s ====\n", title.c_str());
  if (quick_mode()) std::printf("(quick mode: scaled-down parameters)\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Prints a bench's golden block (purely simulation-derived lines) and
/// mirrors it to `<out_dir>/<name>_golden.txt`, the file the determinism
/// harness compares across configurations. Exits non-zero when the file
/// cannot be written, so a compare never reads a stale or missing golden.
inline void write_golden(const std::string& name, const std::string& golden) {
  std::printf("%s", golden.c_str());
  const std::string path = out_dir() + "/" + name + "_golden.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fputs(golden.c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "cannot write golden file '%s'\n", path.c_str());
    std::exit(1);
  }
}

/// Timing footer; every bench prints this last.
/// Format: `[timing] wall 3.21 s | jobs 4 | runs 36 | 45123456 sim events |
/// 14.1M events/s`.
/// When `name` is non-empty, the same numbers are mirrored machine-readably
/// to `<out_dir>/BENCH_<name>.json` so CI can diff sweep throughput across
/// commits without scraping stdout. `extra_json` lets a bench append its own
/// result fields to that file: complete `"key": value` lines, two-space
/// indented, no leading or trailing comma.
inline void footer(const std::string& name = "",
                   const std::string& extra_json = "") {
  const SweepStats& s = sweep_stats();
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              s.wall_start)
                    .count();
  std::uint64_t events = s.sim_events.load(std::memory_order_relaxed);
  std::uint64_t executed = s.runs_executed.load(std::memory_order_relaxed);
  std::uint64_t incomplete = s.runs_incomplete.load(std::memory_order_relaxed);
  double rate = wall > 0 ? static_cast<double>(events) / wall : 0;
  char rate_str[32];
  if (rate >= 1e6) {
    std::snprintf(rate_str, sizeof(rate_str), "%.1fM", rate / 1e6);
  } else {
    std::snprintf(rate_str, sizeof(rate_str), "%.0f", rate);
  }
  std::printf(
      "[timing] wall %.2f s | jobs %u | runs %llu | %llu sim events | %s "
      "events/s\n",
      wall, sweep_jobs(), static_cast<unsigned long long>(executed),
      static_cast<unsigned long long>(events), rate_str);
  if (incomplete > 0) {
    std::printf("[timing] WARNING: %llu run(s) hit the migration time limit\n",
                static_cast<unsigned long long>(incomplete));
  }
  if (name.empty()) return;
  std::string path = out_dir() + "/BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"quick\": %s,\n"
                 "  \"wall_seconds\": %.3f,\n"
                 "  \"jobs\": %u,\n"
                 "  \"runs_executed\": %llu,\n"
                 "  \"runs_incomplete\": %llu,\n"
                 "  \"incomplete\": %s,\n"
                 "  \"sim_events\": %llu,\n"
                 "  \"events_per_sec\": %.0f",
                 name.c_str(), quick_mode() ? "true" : "false", wall,
                 sweep_jobs(), static_cast<unsigned long long>(executed),
                 static_cast<unsigned long long>(incomplete),
                 incomplete > 0 ? "true" : "false",
                 static_cast<unsigned long long>(events), rate);
    if (!extra_json.empty()) std::fprintf(f, ",\n%s", extra_json.c_str());
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  }
}

}  // namespace agile::bench

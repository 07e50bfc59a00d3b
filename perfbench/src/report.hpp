// Metric arithmetic of the benchmark report: medians over repetitions,
// ratios with explicit bases, and the JSON result line. Kept apart from the
// simulator calls so the self-test can drive it with synthetic executions.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(std::vector<double> values);
/// num / den, or 0 when the base is empty.
double ratio(double num, double den);

/// End-to-end metrics of an untraced run. `reps` are repetitions of one
/// schedule (same seed, identical digests); timings are medians over them
/// (set-up: over every set-up of every repetition), simulated results come
/// from the first. `checks_ok` false counts every migration as failed: it
/// zeroes completed_frac and leaves the means over completed migrations as
/// measured.
std::vector<Metric> end_to_end_metrics(const std::vector<Execution>& reps,
                                       double peak_rss_mib, bool checks_ok);

/// The JSON's counts over every execution of an invocation.
struct Tally {
  unsigned long long attempted = 0;  ///< Migrations launched; at least 1.
  unsigned long long failed = 0;     ///< Not complete after the drain.
};
/// `checks_ok` false counts every attempt as failed, a run that launched
/// nothing included.
Tally tally(const std::vector<Execution>& runs, bool checks_ok);

/// Per-layer metrics of a traced execution; `untraced` is the same schedule
/// without the ledger (the base of trace.overhead).
std::vector<Metric> per_layer_metrics(const Execution& traced,
                                      const Execution& untraced);

/// Last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string json_result(bool correct, unsigned long long attempted,
                        unsigned long long failed,
                        const std::vector<Metric>& metrics);

/// 64-bit FNV-1a of the canonical outcome text.
unsigned long long fnv1a(const std::string& text);

}  // namespace perfbench

// Deterministic fleet metrics registry.
//
// A `Registry` holds counters, gauges and fixed-bucket histograms and takes
// sim-time-stamped snapshots of all of them. The contract mirrors the trace
// subsystem's: exports are a pure function of the scenario and seed —
// byte-identical across reruns, lane counts, sweep-job counts and audit mode.
// The rules that make that hold:
//
//  * all values are integers (no doubles in metric state, so printf export
//    is exact and accumulation order cannot perturb low bits),
//  * every cell is a `util::RelaxedCell` — lane events may bump counters
//    concurrently, and commutative integer sums are interleaving-independent
//    once the lane barrier joins (see src/util/relaxed_cell.hpp),
//  * metric *registration* is coordinator-thread-only and keyed by
//    (name, labels); export order is registration order, never hash order,
//  * timestamps come from the simulated clock the caller passes in — this
//    module never reads a wall clock, the environment, or ambient RNG
//    (enforced by tools/lint_determinism.py's strict profile).
//
// Snapshots (`record_snapshot`) append one row of every registered metric's
// current value; metrics registered after a snapshot simply have no value in
// the earlier rows. Export formats: Prometheus exposition text (HELP/TYPE,
// `_bucket{le=}`/`_sum`/`_count` for histograms) and a time-indexed JSON
// document read by tools/stats_report.py.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/relaxed_cell.hpp"
#include "util/status.hpp"

namespace agile::stats {

/// Simulated microseconds; matches SimTime without pulling in sim headers.
using StatsTime = std::int64_t;

/// Monotonic counter. `add` is safe from lane events (commutative relaxed
/// sum); `set` is coordinator-thread-only (single writer per window).
class Counter {
 public:
  void add(std::uint64_t d) { v_.add(d); }
  void inc() { v_.add(1); }
  void set(std::uint64_t v) { v_.store(v); }
  std::uint64_t value() const { return v_.load(); }

 private:
  // In tools/lane_lint.py's shared-counter registry (LL004): lane events bump
  // this cell concurrently, so it must stay a commutative RelaxedCell.
  util::RelaxedCell<std::uint64_t> v_;
};

/// Point-in-time signed value. Lane collectors may `set` disjoint gauges
/// concurrently (single writer per gauge per window); `add`/`sub` are
/// commutative and safe from any lane.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v); }
  void add(std::int64_t d) { v_.add(d); }
  void sub(std::int64_t d) { v_.sub(d); }
  std::int64_t value() const { return v_.load(); }

 private:
  // lane_lint LL004 registry member: see the Counter cell's note above.
  util::RelaxedCell<std::int64_t> v_;
};

/// Fixed-bucket histogram over signed integer observations. Bucket bounds
/// are inclusive upper edges in ascending order; one implicit overflow
/// bucket (`+Inf`) catches the rest. Per-bucket counts and the total count
/// are saturating `uint64` cells; the sum is a signed running total
/// saturating at the int64 ceilings. A runaway series clamps instead of
/// wrapping, and concurrent lane updates stay order-independent: saturation
/// is ceiling-capped addition (for the mixed-sign case the guarantee holds
/// while the total stays off the ceilings — every quantity this repo records
/// is non-negative).
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  /// Records one observation (lane-safe, commutative).
  void observe(std::int64_t v) { observe_n(v, 1); }
  /// Records `n` identical observations in one update.
  void observe_n(std::int64_t v, std::uint64_t n);

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; the last entry
  /// (index bounds().size()) is the total including overflow.
  std::uint64_t cumulative(std::size_t i) const;
  std::uint64_t count() const { return count_.load(); }
  /// Signed running total of observations (two's complement in the cell).
  std::int64_t sum() const { return static_cast<std::int64_t>(sum_.load()); }

 private:
  std::vector<std::int64_t> bounds_;
  // The three value cells are lane_lint LL004 registry members (commutative
  // cross-lane counters); bounds_ is immutable after construction.
  std::vector<util::RelaxedCell<std::uint64_t>> buckets_;  ///< +1 overflow.
  util::RelaxedCell<std::uint64_t> count_;
  util::RelaxedCell<std::uint64_t> sum_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Label set: ordered key→value pairs, rendered `{k1="v1",k2="v2"}`.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by (name, labels). Registration must happen on the
  /// coordinator thread (stable registration order is part of the
  /// determinism contract); lane events only touch the returned cells.
  /// `help` is recorded on first registration of a name and reused after.
  Counter* counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge* gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  Histogram* histogram(const std::string& name,
                       const std::vector<std::int64_t>& bounds,
                       const Labels& labels = {}, const std::string& help = "");

  std::size_t metric_count() const { return metrics_.size(); }

  /// Appends one row: the current value of every registered metric, stamped
  /// with simulated time `now`. Coordinator-thread-only, after the lane
  /// barrier for the scrape window has joined.
  void record_snapshot(StatsTime now);

  /// Prometheus exposition text of the current values. Families appear in
  /// first-registration order; series within a family in registration order.
  /// `now` stamps every sample (milliseconds, Prometheus convention).
  std::string to_prometheus(StatsTime now) const;

  /// Time-indexed JSON: {"snapshots":[{"t_usec":..,"values":{series:val}}]}
  /// with a metadata block describing each series. Histograms export their
  /// cumulative bucket vector, count and sum per snapshot.
  std::string snapshots_json() const;

  /// Writes, creating parent directories first; on failure returns an error
  /// *and* logs a warning (callers on bench paths historically dropped the
  /// Status — the warning makes the drop visible either way).
  Status write_prometheus(const std::string& path, StatsTime now) const;
  Status write_snapshots_json(const std::string& path) const;

 private:
  struct Metric {
    MetricKind kind;
    std::string name;
    Labels labels;
    std::string help;
    // Exactly one is engaged, matching `kind`. Stable addresses: metrics are
    // held by unique-ownership so registry growth never moves live cells.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Snapshot {
    StatsTime t;
    /// One entry per metric registered at snapshot time, metric order.
    /// Counters/gauges contribute one value; histograms contribute their
    /// cumulative buckets then count then sum.
    std::vector<std::vector<std::int64_t>> values;
  };

  /// Canonical series key used for lookup (ordered map: no hashing).
  static std::string series_key(const std::string& name, const Labels& labels);
  Metric* find_or_null(const std::string& key);

  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> index_;  ///< series key → metrics_ idx.
  std::vector<Snapshot> snapshots_;
};

/// Renders a label set as `{k="v",...}` (empty string for no labels).
std::string render_labels(const Labels& labels);

}  // namespace agile::stats

// Time-series recording and the aggregations the paper's figures need.
//
// Samples are (simulated-seconds, value) pairs. Figures 4–6, 9 and 10 are
// timelines of these; Table I is `mean_between` over the migration window;
// the "time to restore 90% of peak" rows come from `time_to_reach`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace agile::metrics {

struct Sample {
  double t = 0;  ///< simulated seconds
  double value = 0;
};

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add(double t, double value) {
    AGILE_CHECK_MSG(samples_.empty() || t >= samples_.back().t,
                    "samples must be appended in time order");
    samples_.push_back({t, value});
  }

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Mean of samples with t in [t0, t1]. 0 if none.
  double mean_between(double t0, double t1) const;

  /// Max value among samples with t in [t0, t1] (0 if none).
  double max_between(double t0, double t1) const;

  /// First time >= `from` at which the value reaches `threshold` and stays
  /// at or above it for `hold` seconds. Returns -1 if never.
  double time_to_reach(double threshold, double from, double hold = 0.0) const;

  /// Value of the last sample at or before `t` (0 if none).
  double value_at(double t) const;

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace agile::metrics

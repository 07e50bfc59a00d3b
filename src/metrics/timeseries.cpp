#include "metrics/timeseries.hpp"

#include <algorithm>

namespace agile::metrics {

double TimeSeries::mean_between(double t0, double t1) const {
  double sum = 0;
  std::size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.t < t0) continue;
    if (s.t > t1) break;
    sum += s.value;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double TimeSeries::max_between(double t0, double t1) const {
  double best = 0;
  for (const Sample& s : samples_) {
    if (s.t < t0) continue;
    if (s.t > t1) break;
    best = std::max(best, s.value);
  }
  return best;
}

double TimeSeries::time_to_reach(double threshold, double from, double hold) const {
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    if (s.t < from || s.value < threshold) continue;
    // Candidate: check it holds.
    bool held = true;
    for (std::size_t j = i; j < samples_.size() && samples_[j].t <= s.t + hold; ++j) {
      if (samples_[j].value < threshold) {
        held = false;
        break;
      }
    }
    if (held) return s.t;
  }
  return -1.0;
}

double TimeSeries::value_at(double t) const {
  double v = 0;
  for (const Sample& s : samples_) {
    if (s.t > t) break;
    v = s.value;
  }
  return v;
}

}  // namespace agile::metrics

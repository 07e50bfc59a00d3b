#include "util/rng.hpp"

#include <cmath>

#include "util/status.hpp"

namespace agile {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  std::uint64_t s = h;
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed, std::string_view tag) {
  std::uint64_t s = seed ^ hash_tag(tag);
  for (auto& word : s_) word = splitmix64(s);
}

namespace {
double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

// Incremental zeta for large n: approximate tail with the integral. Accurate
// to well under 1% for the dataset sizes used here, and keeps setup O(1).
double zeta_approx(std::uint64_t n, double theta) {
  constexpr std::uint64_t kExact = 10000;
  if (n <= kExact) return zeta(n, theta);
  double head = zeta(kExact, theta);
  // Integral of x^-theta from kExact to n.
  double a = static_cast<double>(kExact);
  double b = static_cast<double>(n);
  double tail;
  if (theta == 1.0) {
    tail = std::log(b / a);
  } else {
    tail = (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
  }
  return head + tail;
}
}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  AGILE_CHECK(n > 0);
  AGILE_CHECK(theta > 0.0 && theta < 2.0 && theta != 1.0);
  zetan_ = zeta_approx(n, theta);
  zeta2_ = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  // Standard YCSB-style Zipfian generator (Gray et al., "Quickly generating
  // billion-record synthetic databases").
  double u = rng.next_double();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto idx = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (idx >= n_) idx = n_ - 1;
  return idx;
}

}  // namespace agile

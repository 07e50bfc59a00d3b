// Deterministic random number generation.
//
// Every stochastic component of the simulator owns its own `Rng` stream,
// seeded from an experiment-level seed plus a component tag, so adding or
// reordering components never perturbs the draws of the others. The generator
// is xoshiro256**, seeded via splitmix64 — fast, high quality, and fully
// reproducible across platforms (no implementation-defined std::distribution
// behaviour is relied on).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/status.hpp"

namespace agile {

/// splitmix64 step; used for seeding and hashing tags.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit hash of a string tag (FNV-1a folded through splitmix64).
std::uint64_t hash_tag(std::string_view tag);

class Rng {
 public:
  /// Seeds the stream from `seed` and a component `tag`.
  explicit Rng(std::uint64_t seed, std::string_view tag = "");

  /// Uniform in [0, 2^64). Defined inline: sampled-LRU eviction draws from
  /// this hundreds of millions of times per full-scale sweep, and an
  /// out-of-line call per draw is measurable there.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be > 0. Uses Lemire's bounded rejection.
  std::uint64_t next_below(std::uint64_t n) {
    AGILE_CHECK(n > 0);
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Bounded Zipfian sampler over {0, ..., n-1} with exponent `theta`.
///
/// Uses the standard rejection-inversion method (Gray et al.) so sampling is
/// O(1) per draw after O(1) setup — suitable for datasets of millions of keys.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
};

}  // namespace agile

// Migration trigger and VM selection (paper §III-B).
//
// Memory pressure is declared when the aggregate working-set estimate of a
// host's VMs (plus the host OS) crosses a *high watermark* fraction of its
// RAM. The selector then picks the fewest VMs whose departure brings the
// aggregate under the *low watermark*, so no further migration is needed
// until the high watermark is crossed again. Greedy-largest-first over WSS
// yields the minimum count (all weights positive and we only need the count
// minimized, not the moved bytes).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::wss {

struct WatermarkConfig {
  double high = 0.90;  ///< Fraction of host RAM.
  double low = 0.75;
};

struct VmPressure {
  std::string name;
  Bytes wss = 0;
};

struct TriggerDecision {
  bool pressure = false;                 ///< High watermark crossed.
  std::vector<std::size_t> victims;      ///< Indices into the input entries.
  Bytes aggregate_wss = 0;
  Bytes aggregate_after = 0;             ///< After the victims leave.
  /// Evicting every VM still leaves the aggregate above the low watermark
  /// (the host OS alone exceeds it, or there were no VMs to evict).
  /// Migration cannot fully relieve this host.
  bool insufficient = false;
};

/// Pure decision logic (unit-testable without a cluster).
TriggerDecision evaluate_watermarks(Bytes host_ram, Bytes host_os_bytes,
                                    const std::vector<VmPressure>& vms,
                                    const WatermarkConfig& config);

/// A destination candidate for victim placement. `committed` is everything
/// already claimed against its RAM: host OS, the working sets of resident
/// VMs, and reservations of migrations already in flight toward it.
struct HostHeadroom {
  std::string name;
  Bytes ram = 0;
  Bytes committed = 0;
  /// Rack the candidate sits in (only read by PlacementPolicy::kRackAware).
  std::uint32_t rack = 0;
};

/// Returned by `place_victims` for a victim no candidate can admit.
inline constexpr std::size_t kNoPlacement = static_cast<std::size_t>(-1);

/// Destination preference for `place_victims`.
enum class PlacementPolicy {
  kBestFit,    ///< Global best-fit (the default).
  kRackAware,  ///< Best-fit within the source rack first, then global.
};

/// Pure destination placement: assigns each victim (its WSS, in input order)
/// to the candidate host with the least headroom that still admits it below
/// `low_watermark × ram` — best-fit, so big victims keep their options open.
/// Ties break by candidate input order for determinism. Each placement
/// reserves the victim's WSS against the chosen candidate before the next
/// victim is placed, so one decision cannot overcommit a destination.
/// Victims that fit nowhere get `kNoPlacement`.
///
/// kBestFit ignores `source_rack`. kRackAware places each victim best-fit
/// among candidates in `source_rack` when any of them admits it — keeping
/// migration traffic off the oversubscribed core tier — and falls back to
/// best-fit over the remaining candidates otherwise, with the same
/// tie-breaking and reservation semantics.
std::vector<std::size_t> place_victims(
    const std::vector<Bytes>& victim_wss,
    const std::vector<HostHeadroom>& hosts, double low_watermark,
    PlacementPolicy policy = PlacementPolicy::kBestFit,
    std::uint32_t source_rack = 0);

}  // namespace agile::wss

#include "wss/watermark_trigger.hpp"

#include <algorithm>
#include <numeric>

#include "trace/trace.hpp"

namespace agile::wss {

TriggerDecision evaluate_watermarks(Bytes host_ram, Bytes host_os_bytes,
                                    const std::vector<VmPressure>& vms,
                                    const WatermarkConfig& config) {
  AGILE_CHECK(config.low > 0 && config.low <= config.high && config.high <= 1.0);
  TriggerDecision decision;
  Bytes aggregate = host_os_bytes;
  for (const VmPressure& v : vms) aggregate += v.wss;
  decision.aggregate_wss = aggregate;
  decision.aggregate_after = aggregate;

  const auto high = static_cast<Bytes>(config.high * static_cast<double>(host_ram));
  const auto low = static_cast<Bytes>(config.low * static_cast<double>(host_ram));
  if (aggregate <= high) return decision;
  decision.pressure = true;
  AGILE_TRACE_INSTANT("wss", "watermark_pressure", 0,
                      static_cast<double>(aggregate));

  // Fewest VMs: evict the largest working sets first until we're under the
  // low watermark (ties broken by input order for determinism).
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return vms[a].wss > vms[b].wss;
  });
  Bytes remaining = aggregate;
  for (std::size_t idx : order) {
    if (remaining <= low) break;
    decision.victims.push_back(idx);
    remaining -= vms[idx].wss;
  }
  decision.aggregate_after = remaining;
  // Every VM is gone and we are still over the low watermark: the host OS
  // alone holds the pressure and no amount of migration can relieve it.
  decision.insufficient = remaining > low;
  return decision;
}

std::vector<std::size_t> place_victims(const std::vector<Bytes>& victim_wss,
                                       const std::vector<HostHeadroom>& hosts,
                                       double low_watermark,
                                       PlacementPolicy policy,
                                       std::uint32_t source_rack) {
  AGILE_CHECK(low_watermark > 0 && low_watermark <= 1.0);
  // Remaining admissible bytes per candidate (0 when already at/over low).
  std::vector<Bytes> headroom(hosts.size(), 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto low =
        static_cast<Bytes>(low_watermark * static_cast<double>(hosts[i].ram));
    if (hosts[i].committed < low) headroom[i] = low - hosts[i].committed;
  }
  // Best-fit among candidates for which `eligible(i)` holds; kNoPlacement
  // when none admits the victim. Strictly-smaller comparison keeps the
  // earliest candidate on ties, so placement is deterministic for any input
  // order.
  auto best_fit = [&](Bytes wss, auto&& eligible) {
    std::size_t best = kNoPlacement;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (!eligible(i) || headroom[i] < wss) continue;
      if (best == kNoPlacement || headroom[i] < headroom[best]) best = i;
    }
    return best;
  };
  std::vector<std::size_t> placement(victim_wss.size(), kNoPlacement);
  for (std::size_t v = 0; v < victim_wss.size(); ++v) {
    std::size_t best = kNoPlacement;
    if (policy == PlacementPolicy::kRackAware) {
      // Keep the move off the core tier when the source rack can take it;
      // only then consider remote racks.
      best = best_fit(victim_wss[v], [&](std::size_t i) {
        return hosts[i].rack == source_rack;
      });
      if (best == kNoPlacement) {
        best = best_fit(victim_wss[v], [&](std::size_t i) {
          return hosts[i].rack != source_rack;
        });
      }
    } else {
      best = best_fit(victim_wss[v], [](std::size_t) { return true; });
    }
    if (best == kNoPlacement) continue;
    placement[v] = best;
    headroom[best] -= victim_wss[v];
  }
  return placement;
}

}  // namespace agile::wss

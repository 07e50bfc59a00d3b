// Shared (cached) runner for Figures 7–8: migrate a single idle or busy VM
// of 2–12 GB off a 6 GB host, one run per (technique, size, busy) point.
#pragma once

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "run_cache.hpp"
#include "util/log.hpp"

namespace agile::bench {

inline CachedRun run_single_vm(core::Technique technique, Bytes vm_memory,
                               bool busy) {
  const bool quick = quick_mode();
  char key[128];
  std::snprintf(key, sizeof(key), "singlevm_%s_%llumib_%s%s",
                core::technique_name(technique),
                static_cast<unsigned long long>(vm_memory >> 20),
                busy ? "busy" : "idle", quick ? "_quick" : "");
  return cached_run(key, [&] {
    core::scenarios::SingleVmOptions opt;
    opt.technique = technique;
    opt.host_ram = quick ? 1_GiB : 6_GiB;
    opt.vm_memory = vm_memory;
    opt.busy = busy;
    if (quick) {
      opt.guest_os = 32_MiB;
      opt.free_margin = 64_MiB;
    }
    opt.trace = !trace_stem().empty();
    opt.stats = !stats_stem().empty();
    core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
    sc.prepare();
    sc.run_migration();
    record_run(sc.bed->cluster().events_executed_total());
    if (!sc.migration->metrics().completed) record_incomplete_run();
    if (sc.session != nullptr) {
      Status st = sc.session->recorder().write_chrome_json(trace_stem() + "." +
                                                           key + ".json");
      if (!st.is_ok()) AGILE_LOG_WARN("%s", st.message().c_str());
    }
    if (sc.registry != nullptr) {
      write_run_stats(*sc.registry, key, sc.bed->cluster().simulation().now());
    }
    CachedRun r;
    r.migration = sc.migration->metrics();
    return r;
  });
}

inline std::vector<Bytes> single_vm_sizes() {
  if (quick_mode()) return {512_MiB, 1_GiB, 2_GiB};
  return {2_GiB, 4_GiB, 6_GiB, 8_GiB, 10_GiB, 12_GiB};
}

/// One Fig-7/8 sweep point. Figures iterate busy (outer), size, technique
/// (inner); `single_vm_points` preserves that order so tables keep their
/// historical row order.
struct SingleVmPoint {
  core::Technique technique;
  Bytes size;
  bool busy;
};

inline std::vector<SingleVmPoint> single_vm_points() {
  const core::Technique techniques[] = {core::Technique::kPrecopy,
                                        core::Technique::kPostcopy,
                                        core::Technique::kAgile};
  std::vector<SingleVmPoint> points;
  for (bool busy : {false, true}) {
    for (Bytes size : single_vm_sizes()) {
      for (core::Technique technique : techniques) {
        points.push_back({technique, size, busy});
      }
    }
  }
  return points;
}

inline CachedRun run_single_vm_point(const SingleVmPoint& pt) {
  return run_single_vm(pt.technique, pt.size, pt.busy);
}

}  // namespace agile::bench

#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> end_to_end_metrics(const std::vector<Execution>& reps,
                                       double peak_rss_mib, bool checks_ok) {
  std::vector<double> run;
  std::vector<double> setup;
  for (const Execution& e : reps) {
    run.push_back(e.run_s);
    setup.insert(setup.end(), e.setup_s.begin(), e.setup_s.end());
  }
  const Execution& first = reps.front();
  const double completed = static_cast<double>(first.completed);
  const double launched = static_cast<double>(first.launched);
  return {
      {"run_s", median(run), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
      {"sim_migration_s", ratio(first.migration_s_sum, completed), "sim_s"},
      {"sim_downtime_ms", ratio(first.downtime_ms_sum, completed), "sim_ms"},
      {"sim_wire_mib", first.wire_mib, "MiB"},
      {"sim_client_mops", first.client_ops / 1e6, "Mops"},
      {"completed_frac", checks_ok ? ratio(completed, launched) : 0, "ratio"},
  };
}

Tally tally(const std::vector<Execution>& runs, bool checks_ok) {
  Tally t;
  for (const Execution& e : runs) {
    t.attempted += e.launched;
    t.failed += e.launched - e.completed;
  }
  if (t.attempted == 0) t.attempted = 1;
  if (!checks_ok) t.failed = t.attempted;
  return t;
}

std::vector<Metric> per_layer_metrics(const Execution& t,
                                      const Execution& untraced) {
  const PhaseTotals& p = t.phases;
  const Counters& c = t.counts;
  auto ms = [](double ns) { return ns / 1e6; };
  auto mib = [](double bytes) { return bytes / (1024.0 * 1024.0); };
  const double busy_ns = static_cast<double>(p.busy_ns);
  const double guest_ns = static_cast<double>(p.guest_ns);
  std::vector<Metric> m = {
      // Ledger: the four quantum phases plus the segment tails partition
      // the traced run_s.
      {"host.quantum.guest_ms", ms(guest_ns), "ms"},
      {"host.quantum.migration_ms", ms(static_cast<double>(p.migration_ns)),
       "ms"},
      {"host.quantum.reclaim_net_ms",
       ms(static_cast<double>(p.reclaim_net_ns)), "ms"},
      {"host.quantum.between_ms", ms(static_cast<double>(p.between_ns)), "ms"},
      {"ledger.other_ms", ms(static_cast<double>(p.other_ns)), "ms"},
      {"ledger.coverage_pct",
       100 * ratio(static_cast<double>(p.quantum_phases_ns()), t.run_s * 1e9),
       "%"},
      {"trace.run_ms", t.run_s * 1e3, "ms"},
      {"trace.overhead", ratio(t.run_s, untraced.run_s), "ratio"},
      // Guest access path.
      {"workload.busy_ms", ms(busy_ns), "ms"},
      {"workload.ops", c.ops, "count"},
      {"workload.touches_per_s", ratio(c.ops, busy_ns / 1e9), "1/s"},
      {"mem.minor_faults", c.minor_faults, "count"},
      {"mem.major_faults", c.major_faults, "count"},
      {"mem.swap_ins", c.swap_ins, "count"},
      {"mem.swap_outs", c.swap_outs, "count"},
      {"mem.clean_drops", c.clean_drops, "count"},
      {"mem.major_fault_ratio", ratio(c.major_faults, c.ops), "ratio"},
      {"vmd.reads", c.vmd_reads, "count"},
      {"vmd.writes", c.vmd_writes, "count"},
      {"vmd.pages_peak", t.vmd_pages_peak, "count"},
      // Host maintenance and network.
      {"net.host_tier_mib", mib(c.host_tier_bytes), "MiB"},
      {"net.core_tier_mib", mib(c.core_tier_bytes), "MiB"},
      {"net.core_peak_util_pct", 100 * t.core_peak_util, "%"},
      {"net.flows_peak", t.flows_peak, "count"},
      // Migration engines and swap storage.
      {"migration.pages_full", t.pages_full, "count"},
      {"migration.pages_descriptor", t.pages_descriptor, "count"},
      {"migration.demand_faults", t.demand_faults, "count"},
      {"migration.swap_faults", t.swap_faults, "count"},
      {"migration.source_swapins", t.source_swapins, "count"},
      {"migration.dup_ratio", ratio(t.duplicates, t.pages_full), "ratio"},
      {"migration.precopy_rounds", t.precopy_rounds, "count"},
  };
  for (const char* key : {"precopy", "postcopy", "agile", "scatter_gather"}) {
    const auto it = t.technique_time.find(key);
    const double mean = it == t.technique_time.end()
                            ? 0
                            : ratio(it->second.first, it->second.second);
    m.push_back({std::string("migration.") + key + ".sim_s", mean, "sim_s"});
  }
  const std::vector<Metric> rest = {
      {"swap.reads", c.swap_reads, "count"},
      {"swap.writes", c.swap_writes, "count"},
      // Coordinator between quanta.
      {"core.decisions", t.decisions, "count"},
      {"core.launches", static_cast<double>(t.launched), "count"},
      {"core.deferrals", t.deferrals, "count"},
      {"core.defer_ratio",
       ratio(t.deferrals, t.deferrals + t.decision_launches), "ratio"},
      {"core.rebalance_rounds", t.rebalance_rounds, "count"},
      {"core.rebalance_moves", t.rebalance_moves, "count"},
      {"stats.export_ms", ms(t.stats_scrape_ns), "ms"},
      // Simulation core and lanes.
      {"sim.events", c.events, "count"},
      {"host.quanta", static_cast<double>(p.quanta), "count"},
      {"sim.lane_efficiency", ratio(busy_ns, t.lanes * guest_ns), "ratio"},
      // Set-up.
      {"core.build_ms", t.build_ms, "ms"},
      {"workload.load_ms", t.load_ms, "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string json_result(bool correct, unsigned long long attempted,
                        unsigned long long failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

unsigned long long fnv1a(const std::string& text) {
  unsigned long long h = 14695981039346656037ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench

#include "workloads.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <string_view>

#include "core/scenarios.hpp"

namespace perfbench {

namespace {

using namespace agile;
namespace scen = agile::core::scenarios;

constexpr const char* kPaperSweep = "paper_sweep";
constexpr const char* kFleetRacks = "fleet_racks";

/// Single-VM migrations run until complete or this simulated limit (the
/// scenario's own run_migration default).
constexpr double kSingleVmLimitS = 36000;
/// Fleets: after the horizon no new migration launches; those in flight get
/// this much simulated time to finish, and any still running then fail.
constexpr double kDrainLimitS = 600;

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

void digest_line(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void digest_line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
  out += '\n';
}

using ull = unsigned long long;

double sum_ops(core::Testbed& bed) {
  double ops = 0;
  for (std::size_t v = 0; v < bed.vm_count(); ++v) {
    const workload::Workload* load = bed.vm_at(v).load;
    if (load != nullptr) ops += static_cast<double>(load->ops_total());
  }
  return ops;
}

/// Aggregate counters of a bed at one instant: every VM's current memory
/// plus, per migration, the memory that is not the VM's own — its retained
/// source after switchover, its destination before.
Counters snapshot(core::Testbed& bed,
                  const std::vector<const migration::MigrationManager*>& migs) {
  Counters c;
  auto add_mem = [&c](const mem::GuestMemory* m) {
    if (m == nullptr) return;
    const mem::MemStats& s = m->stats();
    c.minor_faults += static_cast<double>(s.minor_faults);
    c.major_faults += static_cast<double>(s.major_faults);
    c.swap_ins += static_cast<double>(s.swap_ins);
    c.swap_outs += static_cast<double>(s.swap_outs);
    c.clean_drops += static_cast<double>(s.clean_drops);
  };
  for (std::size_t v = 0; v < bed.vm_count(); ++v) {
    core::VmHandle& h = bed.vm_at(v);
    add_mem(&h.machine->memory());
    if (h.per_vm_swap != nullptr) {
      c.vmd_reads += static_cast<double>(h.per_vm_swap->stats().reads);
      c.vmd_writes += static_cast<double>(h.per_vm_swap->stats().writes);
    }
  }
  c.ops = sum_ops(bed);
  for (const migration::MigrationManager* m : migs) {
    if (!m->started()) continue;
    add_mem(m->metrics().switchover_time >= 0 ? m->source_memory()
                                              : m->dest_memory());
  }
  for (std::size_t h = 0; h < bed.host_count(); ++h) {
    const storage::DeviceStats& s = bed.host_at(h)->swap_partition()->stats();
    c.swap_reads += static_cast<double>(s.reads);
    c.swap_writes += static_cast<double>(s.writes);
  }
  const net::Network& net = bed.cluster().network();
  auto tier_bytes = [&net](net::LinkTier t) {
    return static_cast<double>(net.tier_totals(t).bytes_total);
  };
  c.host_tier_bytes =
      tier_bytes(net::LinkTier::kHostUp) + tier_bytes(net::LinkTier::kHostDown);
  c.core_tier_bytes =
      tier_bytes(net::LinkTier::kLeafUp) + tier_bytes(net::LinkTier::kLeafDown);
  c.events = static_cast<double>(bed.cluster().events_executed_total());
  return c;
}

const char* technique_key(std::string_view technique) {
  if (technique == "pre-copy") return "precopy";
  if (technique == "post-copy") return "postcopy";
  if (technique == "agile") return "agile";
  return "scatter_gather";
}

void record_migration(Execution& ex, const migration::MigrationManager& m) {
  const migration::MigrationMetrics& mm = m.metrics();
  ++ex.launched;
  if (mm.completed) {
    ++ex.completed;
    const double s = to_seconds(mm.total_time());
    ex.migration_s_sum += s;
    ex.downtime_ms_sum += static_cast<double>(mm.downtime) / 1000.0;
    auto& per_technique = ex.technique_time[technique_key(m.technique())];
    per_technique.first += s;
    per_technique.second += 1;
  }
  ex.wire_mib += to_mib(mm.bytes_transferred + mm.bytes_scattered);
  ex.pages_full += static_cast<double>(mm.pages_sent_full);
  ex.pages_descriptor += static_cast<double>(mm.pages_sent_descriptor);
  ex.demand_faults += static_cast<double>(mm.pages_demand_served);
  ex.swap_faults += static_cast<double>(mm.pages_swap_faulted);
  ex.source_swapins += static_cast<double>(mm.pages_swapped_in_at_source);
  ex.duplicates += static_cast<double>(mm.duplicate_pages);
  ex.precopy_rounds += mm.precopy_rounds;
  digest_line(ex.digest_text,
              "migration %s %s %s->%s start=%lld switch=%lld end=%lld "
              "down=%lld wire=%llu swapdev=%llu scatter=%llu full=%llu "
              "desc=%llu demand=%llu swapf=%llu srcin=%llu dup=%llu rounds=%u "
              "zero=%llu saved=%llu done=%d",
              m.machine()->name().c_str(), m.technique(),
              m.source_host()->name().c_str(), m.dest_host()->name().c_str(),
              static_cast<long long>(mm.start_time),
              static_cast<long long>(mm.switchover_time),
              static_cast<long long>(mm.end_time),
              static_cast<long long>(mm.downtime),
              static_cast<ull>(mm.bytes_transferred),
              static_cast<ull>(mm.bytes_from_swap_device),
              static_cast<ull>(mm.bytes_scattered),
              static_cast<ull>(mm.pages_sent_full),
              static_cast<ull>(mm.pages_sent_descriptor),
              static_cast<ull>(mm.pages_demand_served),
              static_cast<ull>(mm.pages_swap_faulted),
              static_cast<ull>(mm.pages_swapped_in_at_source),
              static_cast<ull>(mm.duplicate_pages), mm.precopy_rounds,
              static_cast<ull>(mm.pages_zero_elided),
              static_cast<ull>(mm.compressed_bytes_saved),
              mm.completed ? 1 : 0);
}

/// Every VM must end attached to exactly one host. Appends the final
/// placement to the digest.
void check_placement(core::Testbed& bed, Execution& ex) {
  for (std::size_t v = 0; v < bed.vm_count(); ++v) {
    const vm::VirtualMachine* machine = bed.vm_at(v).machine;
    std::size_t attached = 0;
    const char* where = "-";
    for (std::size_t h = 0; h < bed.host_count(); ++h) {
      if (bed.host_at(h)->has_vm(machine)) {
        ++attached;
        where = bed.host_at(h)->name().c_str();
      }
    }
    if (attached != 1) {
      ex.failures.push_back(machine->name() + " is attached to " +
                            std::to_string(attached) + " hosts");
    }
    digest_line(ex.digest_text, "place %s %s ops=%llu",
                machine->name().c_str(), where,
                static_cast<ull>(bed.vm_at(v).load != nullptr
                                     ? bed.vm_at(v).load->ops_total()
                                     : 0));
  }
}

void digest_network(const net::Network& net, std::string& out) {
  for (std::size_t t = 0; t < net::kLinkTierCount; ++t) {
    const auto tier = static_cast<net::LinkTier>(t);
    const net::TierTotals totals = net.tier_totals(tier);
    if (totals.links == 0) continue;
    digest_line(out, "tier %s links=%zu bytes=%llu", net::tier_name(tier),
                totals.links, static_cast<ull>(totals.bytes_total));
  }
}

/// Once-a-second sampler (traced runs) for the peaks a single end-of-run
/// read cannot give: VMD occupancy, open flows, core-link utilization.
std::shared_ptr<sim::PeriodicTask> start_peak_sampler(core::Testbed& bed,
                                                      Execution& ex) {
  return bed.cluster().simulation().schedule_periodic(
      sec(1), [&bed, &ex](SimTime) {
        ex.own_events += 1;
        std::uint64_t pages = 0;
        for (std::size_t i = 0; i < bed.vmd_server_count(); ++i) {
          pages += bed.vmd_server_at(i)->used_pages();
        }
        ex.vmd_pages_peak =
            std::max(ex.vmd_pages_peak, static_cast<double>(pages));
        const net::Network& net = bed.cluster().network();
        ex.flows_peak = std::max(ex.flows_peak,
                                 static_cast<double>(net.open_flow_count()));
        ex.core_peak_util = std::max(
            {ex.core_peak_util,
             net.tier_totals(net::LinkTier::kLeafUp).peak_utilization,
             net.tier_totals(net::LinkTier::kLeafDown).peak_utilization});
      });
}

using Tasks = std::vector<std::shared_ptr<sim::PeriodicTask>>;

/// Brackets the once-a-second stats-scrape slot (traced runs): two tasks
/// created immediately before and after `start_scrape` fire immediately
/// before and after the scrape task at every shared timestamp, so their gap
/// is the scrape's wall time.
Tasks bracket_scrape(sim::Simulation& sim, Execution& ex,
                     const std::function<void()>& start_scrape) {
  auto opened = std::make_shared<std::int64_t>(0);
  Tasks tasks;
  tasks.push_back(sim.schedule_periodic(sec(1), [&ex, opened](SimTime) {
    ex.own_events += 1;
    *opened = wall_ns();
  }));
  start_scrape();
  tasks.push_back(sim.schedule_periodic(sec(1), [&ex, opened](SimTime) {
    ex.own_events += 1;
    ex.stats_scrape_ns += static_cast<double>(wall_ns() - *opened);
  }));
  return tasks;
}

void cancel_all(const Tasks& tasks) {
  for (const auto& t : tasks) t->cancel();
}

void check_lanes(core::Testbed& bed, Execution& ex) {
  if (bed.cluster().lane_count() != ex.lanes) {
    ex.failures.push_back("cluster runs " +
                          std::to_string(bed.cluster().lane_count()) +
                          " lanes, expected " + std::to_string(ex.lanes));
  }
}

// --- paper_sweep ------------------------------------------------------------

void run_paper_sweep(const RunSpec& spec, Execution& ex) {
  const Bytes sizes[] = {2_GiB, 4_GiB, 6_GiB, 8_GiB, 10_GiB, 12_GiB};
  const core::Technique techniques[] = {
      core::Technique::kPrecopy, core::Technique::kPostcopy,
      core::Technique::kAgile, core::Technique::kScatterGather};
  double setup_s = 0;
  for (bool busy : {false, true}) {
    for (Bytes size : sizes) {
      for (core::Technique technique : techniques) {
        scen::SingleVmOptions opt;
        opt.technique = technique;
        opt.vm_memory = size;
        opt.busy = busy;
        opt.seed = spec.seed;
        const std::int64_t t0 = wall_ns();
        scen::SingleVm sc = scen::make_single_vm(opt);
        const std::int64_t t1 = wall_ns();
        sc.prepare();
        const std::int64_t t2 = wall_ns();
        ex.build_ms += static_cast<double>(t1 - t0) / 1e6;
        ex.load_ms += static_cast<double>(t2 - t1) / 1e6;
        setup_s += seconds_between(t0, t2);

        core::Testbed& bed = *sc.bed;
        host::Cluster& cluster = bed.cluster();
        check_lanes(bed, ex);
        std::unique_ptr<Ledger> ledger;
        std::vector<std::unique_ptr<TimedWorkload>> timed;
        Tasks probes;
        if (spec.traced) {
          ledger = std::make_unique<Ledger>(&cluster);
          timed = decorate_workloads(bed, &ledger->clock());
          probes.push_back(start_peak_sampler(bed, ex));
        }
        const Counters before = snapshot(bed, {});

        const std::int64_t r0 = wall_ns();
        if (ledger) ledger->clock().begin(r0);
        // SingleVm::run_migration with its default options, inlined so the
        // trailing ledger hook can be restacked after the engine's hook.
        sc.migration = bed.make_migration(technique, *sc.handle);
        sc.migration->start();
        if (ledger) ledger->restack();
        const double deadline = cluster.now_seconds() + kSingleVmLimitS;
        while (!sc.migration->completed() && cluster.now_seconds() < deadline) {
          cluster.run_for_seconds(1.0);
        }
        const std::int64_t r1 = wall_ns();
        if (ledger) {
          ledger->clock().end(r1);
          ex.phases.add(ledger->clock().totals());
        }
        cancel_all(probes);
        ex.run_s += seconds_between(r0, r1);

        Counters after = snapshot(bed, {sc.migration.get()});
        after.add(before, -1.0);
        ex.counts.add(after);
        ex.client_ops += after.ops;
        digest_line(ex.digest_text, "point %s %s %llumib",
                    core::technique_name(technique), busy ? "busy" : "idle",
                    static_cast<ull>(size >> 20));
        record_migration(ex, *sc.migration);
        check_placement(bed, ex);
        digest_network(cluster.network(), ex.digest_text);
      }
    }
  }
  ex.setup_s.push_back(setup_s);
  // Own events were counted into counts.events; take them out.
  ex.counts.events -= ex.own_events;
}

// --- fleets -------------------------------------------------------------------

struct FleetParts {
  core::Testbed* bed = nullptr;
  core::MigrationOrchestrator* orchestrator = nullptr;
  core::FleetRebalancer* rebalancer = nullptr;      ///< May be null.
  core::FleetStatsCollector* collector = nullptr;   ///< May be null.
  double horizon_s = 0;
  /// Traced runs with a stats plane: the scrape bracket set-up made.
  Tasks probes;
};

/// The fleets' timed schedule: orchestration (and rebalancing) up to the
/// horizon, then a drain in which launched migrations finish.
void run_fleet_schedule(const FleetParts& fleet, const RunSpec& spec,
                        Execution& ex) {
  core::Testbed& bed = *fleet.bed;
  host::Cluster& cluster = bed.cluster();
  std::unique_ptr<Ledger> ledger;
  std::vector<std::unique_ptr<TimedWorkload>> timed;
  Tasks probes = fleet.probes;
  if (spec.traced) {
    ledger = std::make_unique<Ledger>(&cluster);
    timed = decorate_workloads(bed, &ledger->clock());
    // Every launch adds the engine's control hook; keep the ledger's last.
    fleet.orchestrator->set_on_migration(
        [l = ledger.get()](core::VmHandle*, host::Host*) { l->restack(); });
    probes.push_back(start_peak_sampler(bed, ex));
  }
  const Counters before = snapshot(bed, {});

  const std::int64_t t0 = wall_ns();
  if (ledger) ledger->clock().begin(t0);
  fleet.orchestrator->start();
  if (fleet.rebalancer != nullptr) fleet.rebalancer->start();
  cluster.run_for_seconds(fleet.horizon_s);
  std::vector<std::uint64_t> ops_at_horizon;
  for (std::size_t v = 0; v < bed.vm_count(); ++v) {
    const workload::Workload* load = bed.vm_at(v).load;
    ops_at_horizon.push_back(load != nullptr ? load->ops_total() : 0);
  }
  if (fleet.collector != nullptr) fleet.collector->stop();
  if (fleet.rebalancer != nullptr) fleet.rebalancer->stop();
  fleet.orchestrator->stop();
  const double drain_end = cluster.now_seconds() + kDrainLimitS;
  while (fleet.orchestrator->migrations_in_flight() > 0 &&
         cluster.now_seconds() < drain_end) {
    cluster.run_for_seconds(1.0);
  }
  const std::int64_t t1 = wall_ns();
  if (ledger) {
    ledger->clock().end(t1);
    ex.phases.add(ledger->clock().totals());
    fleet.orchestrator->set_on_migration(nullptr);
  }
  cancel_all(probes);
  ex.run_s = seconds_between(t0, t1);

  std::vector<const migration::MigrationManager*> migs;
  for (const auto& m : fleet.orchestrator->migrations()) migs.push_back(m.get());
  Counters after = snapshot(bed, migs);
  after.add(before, -1.0);
  after.events -= ex.own_events;
  ex.counts.add(after);
  for (std::size_t v = 0; v < ops_at_horizon.size(); ++v) {
    ex.client_ops += static_cast<double>(ops_at_horizon[v]);
  }
  ex.client_ops -= before.ops;

  for (const core::FleetDecision& d : fleet.orchestrator->decisions()) {
    ex.decisions += 1;
    ex.decision_launches += static_cast<double>(d.launches.size());
    ex.deferrals += d.deferred;
    digest_line(ex.digest_text,
                "decision t=%lld %s agg=%llu after=%llu victims=%zu "
                "insufficient=%d deferred=%u",
                static_cast<long long>(d.time), d.source_host.c_str(),
                static_cast<ull>(d.trigger.aggregate_wss),
                static_cast<ull>(d.trigger.aggregate_after),
                d.trigger.victims.size(), d.trigger.insufficient ? 1 : 0,
                d.deferred);
    for (const core::FleetLaunch& l : d.launches) {
      digest_line(ex.digest_text, "  launch %s -> %s reserved=%llu",
                  l.vm.c_str(), l.dest.c_str(),
                  static_cast<ull>(l.reserved_wss));
    }
  }
  if (fleet.rebalancer != nullptr) {
    for (const core::RebalanceRound& r : fleet.rebalancer->rounds()) {
      ex.rebalance_rounds += 1;
      ex.rebalance_moves += static_cast<double>(r.moves.size());
      digest_line(ex.digest_text,
                  "round %u t=%lld max=%lld min=%lld balanced=%d throttled=%u",
                  r.index, static_cast<long long>(r.time),
                  static_cast<long long>(r.max_load_millis),
                  static_cast<long long>(r.min_load_millis),
                  r.balanced ? 1 : 0, r.throttled);
      for (const core::RebalanceMove& m : r.moves) {
        digest_line(ex.digest_text, "  move %s %s->%s wss=%llu swap=%d",
                    m.vm.c_str(), m.from.c_str(), m.to.c_str(),
                    static_cast<ull>(m.wss), m.swap ? 1 : 0);
      }
    }
  }
  for (const migration::MigrationManager* m : migs) record_migration(ex, *m);
  for (std::size_t v = 0; v < ops_at_horizon.size(); ++v) {
    digest_line(ex.digest_text, "ops %s horizon=%llu",
                bed.vm_at(v).machine->name().c_str(),
                static_cast<ull>(ops_at_horizon[v]));
  }
  check_placement(bed, ex);
  digest_network(cluster.network(), ex.digest_text);
  digest_line(ex.digest_text, "end t=%lld",
              static_cast<long long>(cluster.simulation().now()));
}

/// Times `setups - 1` throwaway set-ups of `build` + `load`, then the one the
/// schedule runs on (its build/load split goes to the per-layer metrics).
template <typename Scenario, typename Build, typename Load>
Scenario timed_setups(const RunSpec& spec, Execution& ex, Build build,
                      Load load) {
  for (std::uint32_t i = 0; i + 1 < spec.setups; ++i) {
    const std::int64_t t0 = wall_ns();
    Scenario extra = build(false);
    load(extra);
    ex.setup_s.push_back(seconds_between(t0, wall_ns()));
  }
  const std::int64_t t0 = wall_ns();
  Scenario s = build(spec.traced);
  const std::int64_t t1 = wall_ns();
  load(s);
  const std::int64_t t2 = wall_ns();
  ex.build_ms = static_cast<double>(t1 - t0) / 1e6;
  ex.load_ms = static_cast<double>(t2 - t1) / 1e6;
  ex.setup_s.push_back(seconds_between(t0, t2));
  return s;
}

// fleet_racks: the fleet_topology bench's configuration at half scale.
constexpr double kRacksHorizonS = 420;

struct RackFleet {
  scen::Fleet fleet;
  std::unique_ptr<stats::Registry> registry;
  std::unique_ptr<core::FleetStatsCollector> collector;
  Tasks probes;  ///< Traced runs: the scrape bracket.
};

/// `sink` (traced runs) receives the stats-scrape time.
RackFleet build_racks(std::uint64_t seed, std::uint32_t lanes,
                      Execution* sink) {
  scen::FleetOptions opt;
  opt.host_count = 128;
  opt.vm_count = 256;
  opt.racks = 4;
  opt.oversubscription = 4.0;
  opt.spread_initial = true;
  opt.hot_per_rack = true;
  opt.hot_vms = 16;
  opt.hot_at = sec(90);
  opt.hot_active = 640_MiB;
  opt.source_ram = 2176_MiB;
  opt.dest_ram = 2176_MiB;
  opt.ycsb_concurrency = 2;
  opt.rack_aware_placement = true;
  opt.rebalance = true;
  opt.rebalancer_config.rack_aware = true;
  opt.vmd_server_capacity = 256_GiB;
  opt.lanes = lanes;
  opt.seed = seed;
  RackFleet r{scen::make_fleet(opt), nullptr, nullptr, {}};
  // make_fleet's own stats wiring, in its order, so the scrape can be
  // bracketed.
  r.registry = std::make_unique<stats::Registry>();
  r.collector = std::make_unique<core::FleetStatsCollector>(
      r.fleet.bed.get(), r.registry.get());
  r.collector->set_orchestrator(r.fleet.orchestrator.get());
  core::FleetStatsCollector* collector = r.collector.get();
  auto start = [collector] { collector->start(sec(1)); };
  if (sink != nullptr) {
    r.probes = bracket_scrape(r.fleet.bed->cluster().simulation(), *sink, start);
  } else {
    start();
  }
  r.fleet.rebalancer->bind_stats(r.registry.get());
  return r;
}

void run_racks(const RunSpec& spec, Execution& ex) {
  RackFleet r = timed_setups<RackFleet>(
      spec, ex,
      [&](bool traced) {
        return build_racks(spec.seed, ex.lanes, traced ? &ex : nullptr);
      },
      [](RackFleet& rf) { rf.fleet.load_all(); });
  check_lanes(*r.fleet.bed, ex);
  run_fleet_schedule({r.fleet.bed.get(), r.fleet.orchestrator.get(),
                      r.fleet.rebalancer.get(), r.collector.get(),
                      kRacksHorizonS, r.probes},
                     spec, ex);
  if (ex.rebalance_moves < 1) {
    ex.failures.push_back("fleet_racks recorded no rebalancer move");
  }
}

}  // namespace

void Counters::add(const Counters& o, double sign) {
  ops += sign * o.ops;
  minor_faults += sign * o.minor_faults;
  major_faults += sign * o.major_faults;
  swap_ins += sign * o.swap_ins;
  swap_outs += sign * o.swap_outs;
  clean_drops += sign * o.clean_drops;
  vmd_reads += sign * o.vmd_reads;
  vmd_writes += sign * o.vmd_writes;
  swap_reads += sign * o.swap_reads;
  swap_writes += sign * o.swap_writes;
  host_tier_bytes += sign * o.host_tier_bytes;
  core_tier_bytes += sign * o.core_tier_bytes;
  events += sign * o.events;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kPaperSweep, kFleetRacks};
  return names;
}

std::uint32_t default_lanes(const std::string& workload) {
  return workload == kFleetRacks ? 2 : 1;
}

RunPlan run_plan(const std::string& workload) {
  // Host noise comes in phases of tens of seconds, so every run times its
  // schedule twice and reports the median. Each plan sets up at least three
  // times per run; paper_sweep already does 48 set-ups per schedule.
  if (workload == kFleetRacks) return {2, 2};
  return {2, 1};
}

Execution run_workload(const RunSpec& spec) {
  Execution ex;
  ex.lanes = spec.lanes != 0 ? spec.lanes : default_lanes(spec.workload);
  if (spec.workload == kPaperSweep) {
    run_paper_sweep(spec, ex);
  } else if (spec.workload == kFleetRacks) {
    run_racks(spec, ex);
  } else {
    ex.failures.push_back("unknown workload " + spec.workload);
  }
  return ex;
}

}  // namespace perfbench

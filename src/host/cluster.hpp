// Cluster: the simulation harness tying hosts, network and VMs together.
//
// One periodic "quantum" event drives the whole system in a fixed, documented
// order, so runs are deterministic:
//
//   1. every host runs its guest workloads (accesses hit memory/swap/faults),
//   2. control hooks run (migration state machines, WSS controllers),
//   3. hosts run maintenance (bounded reclaim, SSD queue drain),
//   4. the network advances (flow deliveries fire — pages land at the
//      destination),
//   5. observer hooks run (metric sampling).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "host/host.hpp"
#include "sim/lanes.hpp"
#include "sim/simulation.hpp"
#include "util/thread_pool.hpp"
#include "vm/virtual_machine.hpp"
#include "workload/workload.hpp"

namespace agile::host {

struct ClusterConfig {
  SimTime quantum = msec(100);
  std::uint64_t seed = 42;
  net::NetworkConfig network;
  /// Event lanes for per-host quantum phases (workload execution,
  /// maintenance, scrapes) and host-bound one-shots. 0 reads AGILE_SIM_LANES
  /// from the environment (default 1). Every count runs the same lane
  /// coordinator; 1 is a one-lane plan executed inline, with no thread pool.
  /// Output is byte-identical at any lane count — see sim/lanes.hpp for the
  /// determinism contract and DESIGN.md for why it holds here.
  std::uint32_t lanes = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return net_; }
  const ClusterConfig& config() const { return config_; }

  /// Resolved lane count (config override or AGILE_SIM_LANES, floored at 1).
  std::uint32_t lane_count() const { return lane_count_; }

  /// One-shot bound to a host: it runs on the host's lane (cross-lane sends
  /// ride the mailbox) and executes *before* any coordinator event (quantum,
  /// probe) sharing its timestamp — schedule host-bound work accordingly.
  void schedule_on_host(std::size_t host, SimTime t, sim::EventFn fn);

  /// Deterministic host→lane affinity plan, recomputed at each quantum.
  /// The Testbed installs one that keeps migration source/dest pairs on a
  /// shared lane; without a planner hosts are spread round-robin.
  using LanePlanner =
      std::function<std::vector<std::uint32_t>(std::size_t host_count,
                                               std::size_t lanes)>;
  void set_lane_planner(LanePlanner planner) {
    lane_planner_ = std::move(planner);
  }

  /// Events executed across the coordinator heap and all lanes.
  std::uint64_t events_executed_total() const {
    return sim_.events_executed() + lanes_.events_executed();
  }

  /// Quantum index (the LRU clock ticks once per quantum).
  std::uint32_t tick_index() const { return tick_index_; }
  double now_seconds() const { return to_seconds(sim_.now()); }

  /// Fresh deterministic RNG stream for a component.
  Rng make_rng(std::string_view tag) { return Rng(config_.seed, tag); }

  Host* add_host(HostConfig config);
  std::size_t host_count() const { return hosts_.size(); }
  Host* host_at(std::size_t i) const { return hosts_[i].get(); }

  /// A network endpoint that is not a simulated host (e.g. the external
  /// machine YCSB clients run on).
  net::NodeId add_client_node(const std::string& name) {
    return net_.add_node(name);
  }

  /// Takes ownership of a VM / workload (they outlive migrations and hosts'
  /// attach/detach cycles).
  vm::VirtualMachine* adopt_vm(std::unique_ptr<vm::VirtualMachine> machine);
  workload::Workload* adopt_workload(std::unique_ptr<workload::Workload> load);

  using Hook = std::function<void(SimTime now, SimTime dt, std::uint32_t tick)>;

  /// Runs in phase 2 (after workloads, before device maintenance). Returns an
  /// id usable with `remove_hook`.
  std::uint64_t add_control_hook(Hook hook);
  /// Runs in phase 5 (after network deliveries).
  std::uint64_t add_observer_hook(Hook hook);
  void remove_hook(std::uint64_t id);

  /// Periodic metrics scrape. Every `interval`, `per_host(index, host)` runs
  /// for each host — fanned across the event lanes exactly like a quantum
  /// phase (lane-affine, deterministic merge order) — then `finalize(now)`
  /// runs on the coordinator thread after the lane barrier joins. The scrape
  /// event shares the quantum's timestamp ordering: the quantum task is
  /// created first, so at a coinciding timestamp the scrape observes
  /// post-quantum state. Cancel the returned task to stop scraping.
  /// Per-host collection must only touch commutative `util::RelaxedCell`
  /// state or cells written by exactly one host (single writer per window) —
  /// the same contract every lane phase lives under.
  using ScrapePerHost = std::function<void(std::size_t index, Host& host)>;
  using ScrapeFinalize = std::function<void(SimTime now)>;
  std::shared_ptr<sim::PeriodicTask> start_scrape(SimTime interval,
                                                  ScrapePerHost per_host,
                                                  ScrapeFinalize finalize);

  /// Runs the simulation until simulated time `t`.
  void run_until(SimTime t);

  /// Runs `seconds` more of simulated time.
  void run_for_seconds(double seconds) { run_until(sim_.now() + sec(seconds)); }

 private:
  void quantum(SimTime now);
  /// Fans a per-host phase (called with the host index) across the lanes
  /// and barriers at `now`.
  void parallel_phase(SimTime now,
                      const std::function<void(std::size_t)>& phase);
  /// Installs the current host→lane plan (planner or round-robin).
  void install_lane_plan();
  /// One scrape: per-host lane fan-out + finalize.
  void scrape(SimTime now, const ScrapePerHost& per_host,
              const ScrapeFinalize& finalize);

  struct HookEntry {
    std::uint64_t id;
    Hook fn;
  };

  ClusterConfig config_;
  sim::Simulation sim_;
  net::Network net_;
  std::uint32_t lane_count_ = 1;
  std::unique_ptr<util::ThreadPool> lane_pool_;  ///< Null at one lane.
  sim::LaneCoordinator lanes_;
  LanePlanner lane_planner_;
  std::uint32_t tick_index_ = 0;
  std::uint64_t next_hook_id_ = 1;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  std::vector<std::unique_ptr<workload::Workload>> workloads_;
  std::vector<HookEntry> control_hooks_;
  std::vector<HookEntry> observer_hooks_;
  std::shared_ptr<sim::PeriodicTask> quantum_task_;
};

}  // namespace agile::host

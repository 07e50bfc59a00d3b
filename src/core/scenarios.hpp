// Canned experiment scenarios matching the paper's evaluation setups (§V).
//
// Three scenarios cover every figure and table:
//
//  * Consolidation (§V-A, §V-C, Figs. 4–6, Tables I–III): a 23 GB source
//    host running four 10 GB / 2 vCPU VMs with 5.5 GB reservations, each
//    serving a 9 GB dataset (YCSB/Redis or Sysbench/MySQL) to an external
//    client; load ramps per VM, then one VM is migrated to relieve pressure.
//  * SingleVm (§V-B, Figs. 7–8): a 6 GB host with one VM of 2–12 GB, idle or
//    busy, migrated mid-test.
//  * WssTracking (§V-D, Figs. 9–10): one 5 GB VM with a 1.5 GB dataset on a
//    128 GB host, under the reservation controller.
//  * Fleet (beyond the paper's two-host bed): N VMs consolidated on one host
//    of a multi-host fleet under the MigrationOrchestrator; several working
//    sets widen at once, so one watermark decision selects multiple victims
//    and spreads them across destinations concurrently.
#pragma once

#include <memory>
#include <vector>

#include "core/fleet_rebalancer.hpp"
#include "core/fleet_stats.hpp"
#include "core/migration_orchestrator.hpp"
#include "core/testbed.hpp"
#include "trace/trace.hpp"
#include "workload/oltp.hpp"
#include "workload/ycsb.hpp"
#include "wss/reservation_controller.hpp"

namespace agile::core::scenarios {

enum class AppKind { kYcsb, kOltp };

struct ConsolidationOptions {
  Technique technique = Technique::kAgile;
  AppKind app = AppKind::kYcsb;
  std::uint32_t vm_count = 4;
  Bytes host_ram = 23_GiB;
  Bytes vm_memory = 10_GiB;
  Bytes reservation = 5632_MiB;  ///< 5.5 GB, manually matched to the WS.
  Bytes dataset = 9_GiB;         ///< 8 GiB for Sysbench in the paper.
  Bytes guest_os = 200_MiB;      ///< Guest kernel + server binaries.
  Bytes initial_active = 200_MiB;
  Bytes ramped_active = 6_GiB;
  /// Read share of YCSB ops. The paper's phase 1 is read-only but the ramped
  /// phase retransmits gigabytes under pre-copy, implying an update-heavy
  /// mix (YCSB A/B territory).
  double read_fraction = 0.7;
  std::uint64_t seed = 42;
};

struct Consolidation {
  ConsolidationOptions options;
  std::unique_ptr<Testbed> bed;
  std::vector<VmHandle*> handles;
  std::vector<workload::Workload*> loads;
  std::vector<std::unique_ptr<ThroughputProbe>> probes;
  std::unique_ptr<migration::MigrationManager> migration;

  /// Loads all datasets (simulated time 0; call before running).
  void load_all();

  /// Schedules the §V-A script: starting at `ramp_start`, one VM's active
  /// set widens to `ramped_active` every `ramp_step` (YCSB only — Sysbench
  /// runs at full intensity throughout).
  void schedule_ramp(SimTime ramp_start = sec(150), SimTime ramp_step = sec(50));

  /// Schedules the migration of VM 0 at `at` (paper: t = 400 s).
  void schedule_migration(SimTime at);

  /// Average client throughput across all VMs: mean of the per-VM series.
  metrics::TimeSeries average_throughput() const;
};

/// Builds the consolidation testbed, VMs and workloads (datasets not yet
/// loaded — call `load_all`).
Consolidation make_consolidation(const ConsolidationOptions& options);

struct SingleVmOptions {
  Technique technique = Technique::kAgile;
  Bytes host_ram = 6_GiB;
  Bytes vm_memory = 8_GiB;
  bool busy = false;  ///< Busy: Redis dataset ≈ memory − 500 MB + YCSB client.
  Bytes guest_os = 200_MiB;
  Bytes free_margin = 500_MiB;  ///< "leaving only 500MB of free memory".
  /// Busy client's read share (update-heavy enough to matter for pre-copy).
  double read_fraction = 0.7;
  std::uint64_t seed = 42;
  /// Record a trace of the run (spans/counters from every layer). Read it
  /// from `SingleVm::session` after the migration.
  bool trace = false;
  /// Record deterministic metrics snapshots every `stats_interval`; read
  /// them from `SingleVm::registry` after the run (see src/stats).
  bool stats = false;
  SimTime stats_interval = sec(1);
  /// Wire data-path knobs. Defaults keep the classic single-stream,
  /// uncompressed path (byte-identical to the pre-multi-stream scenarios).
  std::uint32_t num_streams = 1;
  migration::Compression compression = migration::Compression::kOff;
  /// Fraction of the VM's prefilled pages that are all-zero (elided to
  /// descriptors when > 0).
  double zero_page_fraction = 0.0;
  /// Network overrides; 0 keeps the NetworkConfig defaults (1 Gbps NIC,
  /// no per-flow cap).
  double link_bits_per_sec = 0.0;
  double flow_max_bits_per_sec = 0.0;
  /// Send-window override; 0 keeps the engine default.
  Bytes send_window = 0;
};

struct SingleVm {
  /// First member: outlives the testbed so teardown events are captured and
  /// the recorder stays installed until everything else is destroyed.
  /// Heap-allocated because SingleVm is moved around (the session's address
  /// must stay stable — it is installed as the thread's recorder).
  std::unique_ptr<trace::TraceSession> session;
  SingleVmOptions options;
  std::unique_ptr<Testbed> bed;
  /// Engaged when options.stats: the registry outlives the collector, and
  /// the collector (whose scrape task lives in the cluster) is declared
  /// after `bed` so it is destroyed first.
  std::unique_ptr<stats::Registry> registry;
  std::unique_ptr<FleetStatsCollector> collector;
  VmHandle* handle = nullptr;
  workload::YcsbWorkload* ycsb = nullptr;  ///< Null when idle.
  std::unique_ptr<migration::MigrationManager> migration;

  /// Fills guest memory (idle VMs have touched memory too — page cache) or
  /// loads the dataset, then settles the testbed briefly.
  void prepare();

  /// Starts the migration now and runs until it completes (or `limit_s`).
  void run_migration(double limit_s = 36000);
};

SingleVm make_single_vm(const SingleVmOptions& options);

struct WssTrackingOptions {
  Bytes host_ram = 128_GiB;
  Bytes vm_memory = 5_GiB;
  Bytes initial_reservation = 5_GiB;
  Bytes dataset = 1536_MiB;  ///< 1.5 GB Redis.
  Bytes guest_os = 200_MiB;
  wss::WssConfig wss;        ///< α=0.95, β=1.03, τ=4 KB/s per the paper.
  std::uint64_t seed = 42;
};

struct WssTracking {
  WssTrackingOptions options;
  std::unique_ptr<Testbed> bed;
  VmHandle* handle = nullptr;
  workload::YcsbWorkload* ycsb = nullptr;
  std::unique_ptr<wss::ReservationController> controller;
  std::unique_ptr<ThroughputProbe> probe;

  void load();
};

WssTracking make_wss_tracking(const WssTrackingOptions& options);

/// Brisk controller factors so fleet scenarios converge in simulated minutes
/// (the paper's α=0.95/β=1.03 takes tens of minutes to track a step).
inline wss::WssConfig fleet_wss_defaults() {
  wss::WssConfig w;
  w.alpha = 0.80;
  w.beta = 1.15;
  return w;
}

struct FleetOptions {
  Technique technique = Technique::kAgile;
  std::uint32_t host_count = 4;   ///< Host 0 + (N−1) destinations.
  std::uint32_t vm_count = 6;     ///< All start consolidated on host 0.
  Bytes source_ram = 2_GiB;       ///< Host 0.
  /// Hosts 1..N−1. Sized so one widened working set fills a destination to
  /// its low watermark — a multi-victim decision must spread out — yet a
  /// single estimate at its cap (`vm_memory`) still fits under low, so a
  /// post-arrival estimate spike cannot push a destination into pressure.
  Bytes dest_ram = 1536_MiB;
  Bytes host_os = 64_MiB;
  Bytes vm_memory = 1_GiB;
  Bytes reservation = 512_MiB;
  Bytes dataset = 768_MiB;
  Bytes guest_os = 32_MiB;
  Bytes initial_active = 96_MiB;
  Bytes hot_active = 512_MiB;     ///< Widened working set of the hot VMs.
  std::uint32_t hot_vms = 3;      ///< VMs 0..hot_vms−1 turn hot together.
  SimTime hot_at = sec(90);
  double read_fraction = 0.8;
  /// Outstanding client requests per VM (YcsbConfig::concurrency). Topology
  /// benches lower this so background RPC traffic does not saturate the
  /// oversubscribed leaf tier and drown the reservation controllers.
  std::uint32_t ycsb_concurrency = 8;
  wss::WatermarkConfig watermarks;
  wss::WssConfig wss = fleet_wss_defaults();
  std::uint32_t per_link_cap = 2;
  std::uint64_t seed = 42;
  /// Record deterministic metrics snapshots every `stats_interval` (host /
  /// VM / VMD / migration-health / orchestrator series); read them from
  /// `Fleet::registry` after the run.
  bool stats = false;
  SimTime stats_interval = sec(1);
  /// Scaling benches: start VM i on host i % host_count instead of
  /// consolidating everyone on host 0, so per-host phase work is spread and
  /// lane scaling is visible. The default keeps the consolidated hotspot bed.
  bool spread_initial = false;
  /// ClusterConfig::lanes passthrough (0: AGILE_SIM_LANES env / 1).
  std::uint32_t lanes = 0;
  /// VMD capacity of the single intermediate host. Scaling benches raise it
  /// with the fleet so the lane planner's near-full safety collapse (see
  /// Testbed::plan_lanes) never triggers.
  Bytes vmd_server_capacity = 64_GiB;
  /// Rack topology: 0 keeps the flat single-switch network (byte-identical
  /// to every historical run). Otherwise the cluster is built on an
  /// oversubscribed leaf-spine fabric with this many racks; hosts are
  /// block-assigned (host i → rack i / (host_count / racks)) and host_count
  /// must divide evenly.
  std::uint32_t racks = 0;
  /// Core oversubscription ratio of the leaf-spine fabric (racks > 0 only).
  double oversubscription = 4.0;
  /// Orchestrator victim placement prefers destinations in the source's
  /// rack (wss::PlacementPolicy::kRackAware).
  bool rack_aware_placement = false;
  /// Run a FleetRebalancer alongside the orchestrator (the caller starts it
  /// together with the orchestrator).
  bool rebalance = false;
  FleetRebalancerConfig rebalancer_config;
  /// With racks: make the hot set the first hot_vms/racks VMs *of each
  /// rack* instead of the first hot_vms VMs globally, creating a per-rack
  /// hotspot with cold local neighbors (requires spread_initial and
  /// hot_vms divisible by racks).
  bool hot_per_rack = false;
};

struct Fleet {
  FleetOptions options;
  std::unique_ptr<Testbed> bed;
  std::vector<VmHandle*> handles;
  std::vector<workload::YcsbWorkload*> ycsbs;
  std::unique_ptr<MigrationOrchestrator> orchestrator;
  /// Engaged when options.rebalance (declared after the orchestrator it
  /// launches through; destroyed first, cancelling its round task).
  std::unique_ptr<FleetRebalancer> rebalancer;
  /// Engaged when options.stats (declared after bed/orchestrator: the
  /// collector is destroyed first, cancelling its scrape task).
  std::unique_ptr<stats::Registry> registry;
  std::unique_ptr<FleetStatsCollector> collector;

  /// Loads all datasets (simulated time 0; call before running), then
  /// schedules the hotspot step: at `hot_at` the first `hot_vms` clients
  /// widen their active sets to `hot_active` simultaneously.
  void load_all();
};

/// Builds the fleet testbed, VMs, workloads and orchestrator (all VMs
/// tracked; datasets not yet loaded — call `load_all`, then
/// `orchestrator->start()`).
Fleet make_fleet(const FleetOptions& options);

}  // namespace agile::core::scenarios

// Wall-time ledger the benchmark keeps from outside the simulator.
//
// One Cluster quantum runs, in order: guest workloads, control hooks, host
// maintenance, the network, observer hooks. The ledger splits a timed
// segment's wall time at those boundaries:
//
//   guest        first Workload::run_quantum of the tick -> first control hook
//   migration    first control hook -> last control hook (migration engines)
//   reclaim_net  last control hook -> observer hook (reclaim, SSD, network)
//   between      observer hook -> next quantum start (coordinator events:
//                orchestrator sweeps, rebalancer rounds, stats scrapes)
//   other        last observer hook -> segment end
//
// The five parts partition the segment exactly. The quantum start is stamped
// by the workload decorator, not by a marker task: a periodic task whose
// period exceeds the quantum re-arms earlier than the quantum does, so at a
// shared timestamp it fires *before* the quantum. A quantum in which no
// workload ran (an idle VM) has an empty guest phase.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/testbed.hpp"
#include "host/cluster.hpp"
#include "workload/workload.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseTotals {
  std::int64_t guest_ns = 0;
  std::int64_t migration_ns = 0;
  std::int64_t reclaim_net_ns = 0;
  std::int64_t between_ns = 0;
  std::int64_t other_ns = 0;
  std::int64_t busy_ns = 0;  ///< Sum of run_quantum calls over all lanes.
  std::uint64_t quanta = 0;

  /// The four host.quantum.* phases (everything but the segment tails).
  std::int64_t quantum_phases_ns() const {
    return guest_ns + migration_ns + reclaim_net_ns + between_ns;
  }
  void add(const PhaseTotals& o);
};

/// Pure phase bookkeeping over explicit timestamps (the self-test drives it
/// with synthetic stamps). Boundary calls come from the coordinator thread;
/// `workload_call` may come from any lane.
class PhaseClock {
 public:
  void begin(std::int64_t t);
  void end(std::int64_t t);
  void workload_call(std::int64_t start, std::int64_t busy);
  void first_control(std::int64_t t);
  void last_control(std::int64_t t);
  void observer(std::int64_t t);
  PhaseTotals totals() const;

 private:
  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();

  std::atomic<std::int64_t> quantum_start_{kNone};  ///< Earliest call this tick.
  std::atomic<std::int64_t> busy_{0};
  bool in_segment_ = false;
  bool in_quantum_ = false;
  std::int64_t mark_ = 0;  ///< Last boundary stamp inside the segment.
  PhaseTotals totals_;
};

/// Installs the phase hooks on a cluster: a control hook registered before
/// any migration starts (closes the guest phase), a trailing control hook
/// (closes the migration phase) and an observer hook (closes maintenance and
/// network). Destroy it before the cluster.
class Ledger {
 public:
  explicit Ledger(agile::host::Cluster* cluster);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  PhaseClock& clock() { return clock_; }

  /// Re-registers the trailing control hook so it runs after every control
  /// hook added since: call after each migration start.
  void restack();

 private:
  agile::host::Cluster* cluster_;
  PhaseClock clock_;
  std::uint64_t first_id_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t observer_id_ = 0;
};

/// Timing decorator around a VM's workload: forwards every call and reports
/// each quantum's duration to the clock.
class TimedWorkload final : public agile::workload::Workload {
 public:
  TimedWorkload(agile::workload::Workload* inner, PhaseClock* clock)
      : inner_(inner), clock_(clock) {}
  TimedWorkload(const TimedWorkload&) = delete;
  TimedWorkload& operator=(const TimedWorkload&) = delete;

  std::uint64_t run_quantum(agile::SimTime dt, std::uint32_t tick) override {
    const std::int64_t start = wall_ns();
    const std::uint64_t ops = inner_->run_quantum(dt, tick);
    clock_->workload_call(start, wall_ns() - start);
    return ops;
  }
  void load(std::uint32_t tick) override { inner_->load(tick); }
  std::uint64_t ops_total() const override { return inner_->ops_total(); }
  const char* kind() const override { return inner_->kind(); }

 private:
  agile::workload::Workload* inner_;
  PhaseClock* clock_;
};

/// Wraps every attached workload of `bed` in a TimedWorkload. Each host's
/// VMs are detached and re-attached in their original order (run order is
/// part of the simulated outcome), and each VmHandle::load is pointed at the
/// decorator so migrations carry it to the destination. The decorators must
/// outlive every later quantum of the bed.
std::vector<std::unique_ptr<TimedWorkload>> decorate_workloads(
    agile::core::Testbed& bed, PhaseClock* clock);

}  // namespace perfbench

#include "ledger.hpp"

#include <algorithm>

namespace perfbench {

void PhaseTotals::add(const PhaseTotals& o) {
  guest_ns += o.guest_ns;
  migration_ns += o.migration_ns;
  reclaim_net_ns += o.reclaim_net_ns;
  between_ns += o.between_ns;
  other_ns += o.other_ns;
  busy_ns += o.busy_ns;
  quanta += o.quanta;
}

void PhaseClock::begin(std::int64_t t) {
  in_segment_ = true;
  in_quantum_ = false;
  mark_ = t;
}

void PhaseClock::end(std::int64_t t) {
  if (!in_segment_) return;
  totals_.other_ns += t - mark_;
  in_segment_ = false;
}

void PhaseClock::workload_call(std::int64_t start, std::int64_t busy) {
  std::int64_t cur = quantum_start_.load(std::memory_order_relaxed);
  while (start < cur && !quantum_start_.compare_exchange_weak(
                            cur, start, std::memory_order_relaxed)) {
  }
  if (in_segment_) busy_.fetch_add(busy, std::memory_order_relaxed);
}

void PhaseClock::first_control(std::int64_t t) {
  // Always consume the stamp, so a quantum outside the segment cannot leak
  // its start into the next one.
  std::int64_t q = quantum_start_.exchange(kNone, std::memory_order_relaxed);
  if (!in_segment_) return;
  q = q == kNone ? t : std::clamp(q, mark_, t);
  totals_.between_ns += q - mark_;
  totals_.guest_ns += t - q;
  ++totals_.quanta;
  mark_ = t;
  in_quantum_ = true;
}

void PhaseClock::last_control(std::int64_t t) {
  if (!in_segment_ || !in_quantum_) return;
  totals_.migration_ns += t - mark_;
  mark_ = t;
}

void PhaseClock::observer(std::int64_t t) {
  if (!in_segment_ || !in_quantum_) return;
  totals_.reclaim_net_ns += t - mark_;
  mark_ = t;
  in_quantum_ = false;
}

PhaseTotals PhaseClock::totals() const {
  PhaseTotals t = totals_;
  t.busy_ns = busy_.load(std::memory_order_relaxed);
  return t;
}

Ledger::Ledger(agile::host::Cluster* cluster) : cluster_(cluster) {
  first_id_ = cluster_->add_control_hook(
      [this](agile::SimTime, agile::SimTime, std::uint32_t) {
        clock_.first_control(wall_ns());
      });
  restack();
  observer_id_ = cluster_->add_observer_hook(
      [this](agile::SimTime, agile::SimTime, std::uint32_t) {
        clock_.observer(wall_ns());
      });
}

Ledger::~Ledger() {
  cluster_->remove_hook(first_id_);
  cluster_->remove_hook(last_id_);
  cluster_->remove_hook(observer_id_);
}

void Ledger::restack() {
  if (last_id_ != 0) cluster_->remove_hook(last_id_);
  last_id_ = cluster_->add_control_hook(
      [this](agile::SimTime, agile::SimTime, std::uint32_t) {
        clock_.last_control(wall_ns());
      });
}

std::vector<std::unique_ptr<TimedWorkload>> decorate_workloads(
    agile::core::Testbed& bed, PhaseClock* clock) {
  std::vector<std::unique_ptr<TimedWorkload>> out;
  for (std::size_t h = 0; h < bed.host_count(); ++h) {
    agile::host::Host* host = bed.host_at(h);
    struct Entry {
      agile::vm::VirtualMachine* machine;
      agile::workload::Workload* load;
    };
    std::vector<Entry> entries;
    for (std::size_t i = 0; i < host->vm_count(); ++i) {
      entries.push_back({host->vm_at(i), host->workload_at(i)});
    }
    for (const Entry& e : entries) host->detach_vm(e.machine);
    for (const Entry& e : entries) {
      agile::workload::Workload* load = e.load;
      if (load != nullptr) {
        out.push_back(std::make_unique<TimedWorkload>(load, clock));
        load = out.back().get();
        for (std::size_t v = 0; v < bed.vm_count(); ++v) {
          agile::core::VmHandle& handle = bed.vm_at(v);
          if (handle.machine == e.machine) {
            AGILE_CHECK_MSG(handle.load == e.load,
                            "host workload differs from the VM handle's");
            handle.load = load;
          }
        }
      }
      host->attach_vm(e.machine, load);
    }
  }
  return out;
}

}  // namespace perfbench

// Workload interfaces.
//
// A workload is a closed-loop client (YCSB, Sysbench) running on an external
// host, issuing operations against a server inside a VM. Each operation
// costs: base service time + network round trip (congestion-aware) + whatever
// page faults the touched pages incur. A quantum of client time is simulated
// by looping operations until the concurrency-scaled time budget is spent —
// so throughput *emerges* from memory pressure, swap latency and network
// interference instead of being scripted.
//
// Workloads reach guest memory only through `PageAccessor`, implemented by
// the VM layer, which routes accesses either to resident/swapped memory or —
// during the post-copy phase of a migration — to the fault engine.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "util/units.hpp"

namespace agile::workload {

class PageAccessor {
 public:
  virtual ~PageAccessor() = default;

  /// Touches guest page `p`; returns the fault latency to charge.
  virtual SimTime access_page(PageIndex p, bool write, std::uint32_t tick) = 0;

  /// Network node of the host the VM currently executes on.
  virtual net::NodeId host_node() const = 0;

  /// Guest memory size in pages.
  virtual std::uint64_t page_count() const = 0;

  /// Number of vCPUs (bounds effective client concurrency server-side).
  virtual std::uint32_t vcpus() const = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Simulates `dt` of client activity at LRU clock `tick`; returns
  /// operations completed within the quantum.
  virtual std::uint64_t run_quantum(SimTime dt, std::uint32_t tick) = 0;

  /// Pre-populates the dataset (runs once before the experiment clock).
  virtual void load(std::uint32_t tick) = 0;

  virtual std::uint64_t ops_total() const = 0;
  virtual const char* kind() const = 0;
};

}  // namespace agile::workload

// Virtualized Memory Device (VMD).
//
// The VMD aggregates free memory of intermediate hosts into a cluster-wide
// page store (the paper's MemX descendant). `VmdServer` instances run on
// intermediate hosts and allocate memory only when a page write arrives.
// Each VM reaches the store through its own `VmdSwapDevice`
// (vmd_swap_device.hpp): one private namespace that places, locates and
// drops pages and is portable between hosts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "net/network.hpp"
#include "storage/device.hpp"
#include "util/relaxed_cell.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::vmd {

struct VmdServerConfig {
  Bytes capacity = 64_GiB;       ///< Memory this host contributes.
  SimTime service_time = 3;      ///< µs to locate+copy a page in RAM.
  /// Optional second tier (paper §IV-A: "it is possible to extend the amount
  /// of swap space available at the VMD by using excess disk space (HDs
  /// and/or SSDs) alongside the excess memory"). 0 disables it.
  Bytes disk_capacity = 0;
  storage::SsdConfig disk = {};  ///< Device model for the disk tier.
};

/// Which tier a stored page landed on.
enum class VmdTier : std::uint8_t { kMemory = 0, kDisk = 1 };

class VmdServer {
 public:
  explicit VmdServer(net::NodeId node, VmdServerConfig config = {});

  net::NodeId node() const { return node_; }

  Bytes used_bytes() const { return memory_pages_ * kPageSize; }
  Bytes free_bytes() const { return config_.capacity - used_bytes(); }
  Bytes disk_capacity() const { return config_.disk_capacity; }
  Bytes disk_free_bytes() const {
    return config_.disk_capacity - disk_pages_ * kPageSize;
  }
  std::uint64_t used_pages() const { return memory_pages_ + disk_pages_; }
  std::uint64_t memory_pages() const { return memory_pages_; }
  std::uint64_t disk_pages() const { return disk_pages_; }

  /// Allocate-on-write: memory first, spilling to the disk tier when the
  /// memory contribution is exhausted. Returns the tier used, or nullopt if
  /// both tiers are full.
  std::optional<VmdTier> store_page();

  /// Releases one page frame from the given tier.
  void drop_page(VmdTier tier);

  /// Server-side service latency for a read from `tier`.
  SimTime read_latency(VmdTier tier);

  /// Drains the disk tier's queue (no-op without one).
  void advance(SimTime dt);

 private:
  net::NodeId node_;
  VmdServerConfig config_;
  /// Relaxed cells: VMD-bound VMs on different event lanes store/drop frames
  /// concurrently. The counts are commutative sums, and the lane planner
  /// serializes the fleet whenever placement would actually depend on them
  /// (disk tier configured, or memory within the safety margin of full).
  /// Registered in tools/lane_lint.py's shared-counter registry (LL004):
  /// re-declaring either as a plain integer fails the lint.
  util::RelaxedCell<std::uint64_t> memory_pages_;
  util::RelaxedCell<std::uint64_t> disk_pages_;
  std::unique_ptr<storage::SsdModel> disk_;
};

}  // namespace agile::vmd

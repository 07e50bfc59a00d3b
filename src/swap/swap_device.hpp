// Swap device abstraction.
//
// A swap device stores whole 4 KiB pages addressed by *slot* (the paper's
// "offset on the swap device"). Two families exist:
//
//  * `LocalSwapDevice` — a partition on the host SSD, shared by every VM on
//    the host (the pre-copy/post-copy baseline configuration). Contention is
//    real: all local swap devices created from the same `SsdModel` share its
//    queue.
//  * `VmdSwapDevice` (src/vmd) — a per-VM namespace in the distributed
//    Virtualized Memory Device; portable across hosts, which is what makes
//    Agile migration's "leave the cold pages where they are" work.
//
// Reads are synchronous from the faulting VM's point of view (the returned
// latency is charged to the access). Writes are write-behind: the device
// queues them and the caller is not delayed, but the queued work does delay
// subsequent reads — that asymmetry is what makes reclaim cheap until the
// device saturates.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/device.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::swap {

using SwapSlot = std::uint32_t;
inline constexpr SwapSlot kNoSlot = static_cast<SwapSlot>(-1);

class SwapDevice {
 public:
  virtual ~SwapDevice() = default;

  /// Allocates a free slot; aborts if the device is full (a production
  /// system would OOM-kill; the simulator treats it as a config error).
  virtual SwapSlot allocate_slot() = 0;

  /// Releases a slot for reuse.
  virtual void free_slot(SwapSlot slot) = 0;

  /// Synchronous page read; returns latency to charge the faulting access.
  virtual SimTime read_page(SwapSlot slot) = 0;

  /// Read as part of a sequential sweep (a migration scan). Devices with
  /// readahead amortize seek/IOPS cost across a cluster of pages; the default
  /// is an ordinary random read.
  virtual SimTime read_page_sequential(SwapSlot slot) { return read_page(slot); }

  /// Write-behind page write; returns immediately (latency 0 for caller).
  virtual void write_page(SwapSlot slot) = 0;

  /// Slots currently allocated.
  virtual std::uint64_t used_slots() const = 0;

  /// Capacity in slots.
  virtual std::uint64_t capacity_slots() const = 0;

  /// iostat view of this swap device (per-VM for per-VM devices).
  virtual const storage::DeviceStats& stats() const = 0;
  virtual storage::DeviceStats& mutable_stats() = 0;

  virtual const std::string& name() const = 0;
};

/// Slot allocator shared by the concrete devices.
class SlotAllocator {
 public:
  explicit SlotAllocator(std::uint64_t capacity) : capacity_(capacity) {}

  SwapSlot allocate();
  void release(SwapSlot slot);
  std::uint64_t used() const { return used_; }
  std::uint64_t capacity() const { return capacity_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  SwapSlot next_fresh_ = 0;
  std::vector<SwapSlot> free_list_;
};

/// Swap partition on a (possibly shared) host SSD.
class LocalSwapDevice final : public SwapDevice {
 public:
  LocalSwapDevice(std::string name, std::shared_ptr<storage::SsdModel> ssd,
                  Bytes capacity);

  SwapSlot allocate_slot() override;
  void free_slot(SwapSlot slot) override;
  SimTime read_page(SwapSlot slot) override;
  /// Kernel-style swap readahead: every `kReadaheadPages`-th sequential read
  /// issues one clustered I/O covering the whole window; the rest hit the
  /// just-prefetched pages. Sequential sweeps therefore run near device
  /// bandwidth instead of being IOPS-bound, while still queueing behind (and
  /// adding to) whatever else the SSD is serving.
  SimTime read_page_sequential(SwapSlot slot) override;
  void write_page(SwapSlot slot) override;

  static constexpr std::uint32_t kReadaheadPages = 16;
  std::uint64_t used_slots() const override { return slots_.used(); }
  std::uint64_t capacity_slots() const override { return slots_.capacity(); }
  const storage::DeviceStats& stats() const override { return stats_; }
  storage::DeviceStats& mutable_stats() override { return stats_; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  std::shared_ptr<storage::SsdModel> ssd_;
  SlotAllocator slots_;
  storage::DeviceStats stats_;
  std::uint64_t readahead_counter_ = 0;
};

}  // namespace agile::swap

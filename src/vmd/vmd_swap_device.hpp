// Per-VM swap device backed by a private VMD namespace.
//
// This is the block device the VMD client exports for one VM (/dev/blk<N>
// in the paper); one object holds the whole namespace. It:
//
//  * maps swap slots 1:1 onto namespace pages, each stored on one server;
//  * places page writes with a load-aware round-robin over servers that most
//    recently reported free memory (servers push availability updates on a
//    heartbeat, `update_availability`);
//  * locates and fetches pages on reads, paying real network cost through
//    the simulated fabric.
//
// Portability is the point: `attach_to` re-attaches the namespace at another
// host without moving a single page, so the same device is first filled by
// the source and later read by the destination after migration — that is
// what lets Agile migration leave cold pages in place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "swap/swap_device.hpp"
#include "vmd/vmd.hpp"

namespace agile::vmd {

class VmdSwapDevice final : public swap::SwapDevice {
 public:
  /// `capacity` bounds how many pages this VM may keep in the VMD (a
  /// namespace quota, not a physical reservation — servers allocate on
  /// write). `access_node` is the host the VM runs on.
  VmdSwapDevice(std::string name, net::Network* network,
                net::NodeId access_node, Bytes capacity);

  /// Registers an intermediate server. Any machine with spare memory may
  /// contribute.
  void register_server(VmdServer* server);

  /// Refreshes cached availability from every server (the heartbeat). The
  /// placement algorithm only trusts this cache, like the real protocol.
  void update_availability();

  swap::SwapSlot allocate_slot() override;
  void free_slot(swap::SwapSlot slot) override;
  /// Returns the full latency (network + server service).
  SimTime read_page(swap::SwapSlot slot) override;
  /// Write-behind: returns immediately after handing the page to the
  /// network. Chooses a server load-aware.
  void write_page(swap::SwapSlot slot) override;
  std::uint64_t used_slots() const override { return slots_.used(); }
  std::uint64_t capacity_slots() const override { return slots_.capacity(); }
  const storage::DeviceStats& stats() const override { return stats_; }
  storage::DeviceStats& mutable_stats() override { return stats_; }
  const std::string& name() const override { return name_; }

  /// Rebinds the device to the host now running the VM.
  void attach_to(net::NodeId node) { access_node_ = node; }

  /// Trace lane for this namespace's read/write counters (the owning VM's
  /// lane; set by the testbed when the device is bound to a VM).
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  /// Pages physically stored in the VMD for this namespace.
  std::uint64_t stored_pages() const { return stored_pages_; }

 private:
  static constexpr Bytes kPageHeader = 64;   ///< Wire overhead per page message.
  static constexpr Bytes kRequestSize = 96;  ///< Read-request message size.
  static constexpr std::uint16_t kUnmapped = 0xffff;
  static constexpr std::uint16_t kDiskBit = 0x8000;  ///< Tier bit in location.

  std::uint16_t pick_server();

  std::string name_;
  net::Network* network_;
  net::NodeId access_node_;
  std::vector<VmdServer*> servers_;
  std::vector<Bytes> cached_free_;       ///< Memory availability cache.
  std::vector<Bytes> cached_disk_free_;  ///< Disk-tier availability cache.
  std::uint16_t rr_cursor_ = 0;
  /// slot -> server index | tier bit (kUnmapped when the slot holds no page).
  std::vector<std::uint16_t> location_;
  std::uint64_t stored_pages_ = 0;
  swap::SlotAllocator slots_;
  storage::DeviceStats stats_;
  std::uint64_t trace_id_ = 0;
};

}  // namespace agile::vmd

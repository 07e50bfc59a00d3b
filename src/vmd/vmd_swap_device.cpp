#include "vmd/vmd_swap_device.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace agile::vmd {

VmdSwapDevice::VmdSwapDevice(std::string name, net::Network* network,
                             net::NodeId access_node, Bytes capacity)
    : name_(std::move(name)),
      network_(network),
      access_node_(access_node),
      slots_(pages_for(capacity)) {
  AGILE_CHECK(network_ != nullptr);
}

void VmdSwapDevice::register_server(VmdServer* server) {
  AGILE_CHECK(server != nullptr);
  AGILE_CHECK_MSG(servers_.size() < 0x7fffu, "too many VMD servers");
  servers_.push_back(server);
  cached_free_.push_back(server->free_bytes());
  cached_disk_free_.push_back(server->disk_free_bytes());
}

void VmdSwapDevice::update_availability() {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    cached_free_[i] = servers_[i]->free_bytes();
    cached_disk_free_[i] = servers_[i]->disk_free_bytes();
    // Heartbeat messages are tiny; account them for completeness.
    network_->consume_background(servers_[i]->node(), access_node_, 64);
  }
}

std::uint16_t VmdSwapDevice::pick_server() {
  AGILE_CHECK_MSG(!servers_.empty(), "VMD has no servers");
  // Load-aware round-robin: next server (cyclically) whose last availability
  // report shows unused *memory*; servers with only disk tier space left are
  // the fallback. A final live refresh guards against a stale cache.
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      std::uint16_t idx = static_cast<std::uint16_t>((rr_cursor_ + i) % servers_.size());
      if (cached_free_[idx] >= kPageSize) {
        rr_cursor_ = static_cast<std::uint16_t>((idx + 1) % servers_.size());
        return idx;
      }
    }
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      std::uint16_t idx = static_cast<std::uint16_t>((rr_cursor_ + i) % servers_.size());
      if (cached_disk_free_[idx] >= kPageSize) {
        rr_cursor_ = static_cast<std::uint16_t>((idx + 1) % servers_.size());
        return idx;
      }
    }
    update_availability();  // cache may be stale; one refresh before giving up
  }
  AGILE_CHECK_MSG(false, "VMD cluster out of memory");
  return kUnmapped;
}

swap::SwapSlot VmdSwapDevice::allocate_slot() { return slots_.allocate(); }

void VmdSwapDevice::free_slot(swap::SwapSlot slot) {
  if (slot < location_.size() && location_[slot] != kUnmapped) {
    // Release the server frame the page occupies.
    std::uint16_t loc = location_[slot];
    std::uint16_t idx = static_cast<std::uint16_t>(loc & ~kDiskBit);
    if (loc & kDiskBit) {
      servers_[idx]->drop_page(VmdTier::kDisk);
      cached_disk_free_[idx] += kPageSize;
    } else {
      servers_[idx]->drop_page(VmdTier::kMemory);
      cached_free_[idx] += kPageSize;
    }
    location_[slot] = kUnmapped;
    --stored_pages_;
    network_->consume_background(access_node_, servers_[idx]->node(), 64);
  }
  slots_.release(slot);
}

SimTime VmdSwapDevice::read_page(swap::SwapSlot slot) {
  ++stats_.reads;
  ++stats_.window_reads;
  stats_.bytes_read += kPageSize;
  stats_.window_bytes_read += kPageSize;
  if (trace::sample_counter(stats_.reads)) {
    AGILE_TRACE_COUNTER("vmd", "ns_reads", trace_id_, stats_.reads);
  }
  AGILE_CHECK_MSG(slot < location_.size() && location_[slot] != kUnmapped,
                  "VMD read of unmapped key");
  std::uint16_t loc = location_[slot];
  VmdServer* server = servers_[loc & ~kDiskBit];
  VmdTier tier = (loc & kDiskBit) ? VmdTier::kDisk : VmdTier::kMemory;
  network_->consume_background(access_node_, server->node(), kRequestSize);
  network_->consume_background(server->node(), access_node_,
                               kPageSize + kPageHeader);
  return network_->rpc_latency(access_node_, server->node(),
                               kPageSize + kPageHeader) +
         server->read_latency(tier);
}

void VmdSwapDevice::write_page(swap::SwapSlot slot) {
  ++stats_.writes;
  ++stats_.window_writes;
  stats_.bytes_written += kPageSize;
  stats_.window_bytes_written += kPageSize;
  if (trace::sample_counter(stats_.writes)) {
    AGILE_TRACE_COUNTER("vmd", "ns_writes", trace_id_, stats_.writes);
  }
  if (slot >= location_.size()) location_.resize(slot + 1, kUnmapped);
  AGILE_CHECK_MSG(location_[slot] == kUnmapped, "overwriting a live VMD page");
  std::uint16_t idx = pick_server();
  std::optional<VmdTier> tier = servers_[idx]->store_page();
  while (!tier) {
    // Stale cache: this server is actually full. Record truth and move on.
    cached_free_[idx] = servers_[idx]->free_bytes();
    cached_disk_free_[idx] = servers_[idx]->disk_free_bytes();
    idx = pick_server();
    tier = servers_[idx]->store_page();
  }
  if (*tier == VmdTier::kMemory) {
    cached_free_[idx] -= std::min<Bytes>(cached_free_[idx], kPageSize);
    location_[slot] = idx;
  } else {
    cached_disk_free_[idx] -= std::min<Bytes>(cached_disk_free_[idx], kPageSize);
    location_[slot] = static_cast<std::uint16_t>(idx | kDiskBit);
  }
  ++stored_pages_;
  network_->consume_background(access_node_, servers_[idx]->node(),
                               kPageSize + kPageHeader);
}

}  // namespace agile::vmd

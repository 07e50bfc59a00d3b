#include "vmd/vmd.hpp"

namespace agile::vmd {

VmdServer::VmdServer(net::NodeId node, VmdServerConfig config)
    : node_(node), config_(config) {
  AGILE_CHECK(config_.capacity >= kPageSize);
  if (config_.disk_capacity > 0) {
    disk_ = std::make_unique<storage::SsdModel>(config_.disk);
  }
}

std::optional<VmdTier> VmdServer::store_page() {
  if (free_bytes() >= kPageSize) {
    memory_pages_.add(1);
    return VmdTier::kMemory;
  }
  if (disk_free_bytes() >= kPageSize && disk_ != nullptr) {
    disk_pages_.add(1);
    disk_->submit_write(kPageSize);  // write-behind to the tier device
    return VmdTier::kDisk;
  }
  return std::nullopt;
}

void VmdServer::drop_page(VmdTier tier) {
  if (tier == VmdTier::kMemory) {
    AGILE_CHECK(memory_pages_ > 0);
    memory_pages_.sub(1);
  } else {
    AGILE_CHECK(disk_pages_ > 0);
    disk_pages_.sub(1);
  }
}

SimTime VmdServer::read_latency(VmdTier tier) {
  if (tier == VmdTier::kMemory) return config_.service_time;
  AGILE_CHECK(disk_ != nullptr);
  return config_.service_time + disk_->submit_read(kPageSize);
}

void VmdServer::advance(SimTime dt) {
  if (disk_ != nullptr) disk_->advance(dt);
}

}  // namespace agile::vmd

// YCSB-over-Redis workload model.
//
// The guest runs an in-memory key-value store whose dataset occupies a
// contiguous range of guest pages (after a guest-OS carve-out). An external
// YCSB client queries keys drawn uniformly (or Zipfian) from the *active*
// prefix of the dataset; the active size is adjustable at runtime, which is
// how the paper's §V-A experiment ramps each VM from a 200 MB to a 6 GB
// working set.
#pragma once

#include <optional>

#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace agile::workload {

struct YcsbConfig {
  Bytes dataset_bytes = 9_GiB;      ///< Redis dataset size.
  Bytes guest_os_bytes = 200_MiB;   ///< Pages below the dataset (guest kernel).
  Bytes active_bytes = 200_MiB;     ///< Queried prefix of the dataset.
  double read_fraction = 0.95;      ///< Reads vs updates.
  double zipf_theta = 0.0;          ///< 0 = uniform (paper's setting).
  SimTime base_op_time = 45;        ///< µs of server CPU per op.
  std::uint32_t concurrency = 8;    ///< Outstanding client requests.
  Bytes request_bytes = 128;        ///< Client → server per op.
  Bytes response_bytes = 1024;      ///< Server → client per op.
};

class YcsbWorkload final : public Workload {
 public:
  YcsbWorkload(PageAccessor* accessor, net::Network* network,
               net::NodeId client_node, YcsbConfig config, Rng rng);

  std::uint64_t run_quantum(SimTime dt, std::uint32_t tick) override;
  void load(std::uint32_t tick) override;
  std::uint64_t ops_total() const override { return ops_total_; }
  const char* kind() const override { return "ycsb"; }

  /// Ramps the queried prefix (clamped to the dataset size).
  void set_active_bytes(Bytes bytes);
  Bytes active_bytes() const { return active_pages_ * kPageSize; }

  Bytes dataset_bytes() const { return config_.dataset_bytes; }

  /// First guest page of the dataset.
  PageIndex dataset_base() const { return base_page_; }

 private:
  PageIndex pick_page();

  PageAccessor* accessor_;
  net::Network* network_;
  net::NodeId client_node_;
  YcsbConfig config_;
  Rng rng_;

  PageIndex base_page_;
  std::uint64_t dataset_pages_;
  std::uint64_t active_pages_;
  std::optional<ZipfSampler> zipf_;
  std::uint64_t ops_total_ = 0;
};

}  // namespace agile::workload

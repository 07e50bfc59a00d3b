// Sysbench-OLTP-over-MySQL workload model.
//
// Transactions touch several pages (index walks + row reads, Zipfian-skewed
// like a B-tree under a uniform key distribution: hot inner nodes, colder
// leaves) and a write-transaction tail updates rows and log pages. Base
// transaction cost is tens of milliseconds of server work, so throughput is
// two orders of magnitude below YCSB's — matching the paper's Table I units
// (trans/s vs ops/s).
#pragma once

#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace agile::workload {

struct OltpConfig {
  Bytes dataset_bytes = 8_GiB;     ///< InnoDB data + indexes.
  Bytes guest_os_bytes = 300_MiB;  ///< Guest kernel + mysqld code.
  double write_txn_fraction = 0.3; ///< Share of read-write transactions.
  std::uint32_t reads_per_txn = 10;   ///< Pages touched by a read txn.
  std::uint32_t writes_per_txn = 4;   ///< Extra dirtied pages in a write txn.
  double zipf_theta = 0.6;         ///< Index-walk skew.
  SimTime base_txn_time = 28000;   ///< µs of server CPU per transaction.
  std::uint32_t concurrency = 4;   ///< Client threads.
  Bytes request_bytes = 512;
  Bytes response_bytes = 4096;
};

class OltpWorkload final : public Workload {
 public:
  OltpWorkload(PageAccessor* accessor, net::Network* network,
               net::NodeId client_node, OltpConfig config, Rng rng);

  std::uint64_t run_quantum(SimTime dt, std::uint32_t tick) override;
  void load(std::uint32_t tick) override;
  std::uint64_t ops_total() const override { return txns_total_; }
  const char* kind() const override { return "oltp"; }

  PageIndex dataset_base() const { return base_page_; }

 private:
  PageAccessor* accessor_;
  net::Network* network_;
  net::NodeId client_node_;
  OltpConfig config_;
  Rng rng_;

  PageIndex base_page_;
  std::uint64_t dataset_pages_;
  ZipfSampler zipf_;
  std::uint64_t txns_total_ = 0;
};

}  // namespace agile::workload

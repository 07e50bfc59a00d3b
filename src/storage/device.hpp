// Block device model.
//
// `SsdModel` is a two-channel (read/write) queueing server driven by the
// simulation quantum. Each submitted I/O contributes its service cost (in
// device-seconds) to the current quantum's work; `advance(dt)` turns that
// work into (a) a carried backlog for whatever exceeded the quantum's
// service capacity and (b) a utilization signal. A request's quoted latency
// is base + carried backlog + its own service cost amplified by last
// quantum's utilization (M/G/1-flavored). Same-quantum requests do not queue
// behind each other — all submitters here are closed loops that pace
// themselves by the returned latency. When swap-in demand from a migrating
// VM competes with application page faults the channels saturate, the carry
// grows, and latencies balloon — exactly the thrashing mechanism the
// paper's busy-VM experiments exercise. Writes interfere with reads at a
// configurable fraction (write-back caching absorbs most of it).
//
// `DeviceStats` doubles as the simulator's `iostat`: the WSS estimator reads
// the per-window byte counters of a per-VM swap device to compute the swap
// rate S.
#pragma once

#include <cstdint>

#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::storage {

struct DeviceStats {
  std::uint64_t reads = 0;          ///< Read ops, cumulative.
  std::uint64_t writes = 0;         ///< Write ops, cumulative.
  Bytes bytes_read = 0;             ///< Cumulative.
  Bytes bytes_written = 0;          ///< Cumulative.
  std::uint64_t window_reads = 0;   ///< Since last `reset_window`.
  std::uint64_t window_writes = 0;
  Bytes window_bytes_read = 0;
  Bytes window_bytes_written = 0;

  void reset_window() {
    window_reads = window_writes = 0;
    window_bytes_read = window_bytes_written = 0;
  }
};

struct SsdConfig {
  // Defaults model a 2013-class consumer SATA SSD (the testbed's Crucial
  // 128 GB) in the kernel swap path: spec-sheet IOPS never survive queue
  // depth 1-4 random access mixed with write-back traffic.
  double read_bytes_per_sec = 200e6;   ///< Sustained sequential read.
  double write_bytes_per_sec = 120e6;  ///< Sustained write.
  double iops = 10000;                 ///< Effective 4 KiB random ops/sec.
  SimTime base_read_latency = 120;     ///< µs, uncontended.
  SimTime base_write_latency = 60;     ///< µs, uncontended.
  /// Reads and writes are served by separate channels (NCQ + write-back
  /// caching); a read queues behind pending reads plus this fraction of the
  /// pending write work.
  double write_read_interference = 0.35;
};

/// Submitting an I/O returns the latency the caller should charge; the
/// model is advanced once per simulation quantum.
class SsdModel {
 public:
  explicit SsdModel(SsdConfig config = {});

  /// Submits a read of `bytes`; returns completion latency from now.
  SimTime submit_read(Bytes bytes);
  /// Submits a write of `bytes`; returns completion latency from now.
  SimTime submit_write(Bytes bytes);
  /// Drains queued work for `dt` of simulated time.
  void advance(SimTime dt);

  const DeviceStats& stats() const { return stats_; }
  DeviceStats& mutable_stats() { return stats_; }

  /// Outstanding read work, in device-seconds (carried overload + this
  /// quantum).
  double read_backlog_seconds() const { return read_carry_ + read_work_; }

  /// Utilization (0..1) of each channel over the last advanced quantum.
  double read_utilization() const { return u_read_; }
  double write_utilization() const { return u_write_; }

  const SsdConfig& config() const { return config_; }

 private:
  double op_cost_seconds(Bytes bytes, double dir_bw) const;
  static double queue_factor(double utilization);

  SsdConfig config_;
  double read_work_ = 0.0;   ///< Submitted this quantum (device-seconds).
  double write_work_ = 0.0;
  double read_carry_ = 0.0;  ///< Overload carried across quanta.
  double write_carry_ = 0.0;
  double u_read_ = 0.0;      ///< Last quantum's utilization.
  double u_write_ = 0.0;
  DeviceStats stats_;
};

}  // namespace agile::storage

#include <gtest/gtest.h>

#include "storage/device.hpp"

namespace agile::storage {
namespace {

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.read_bytes_per_sec = 100e6;
  cfg.write_bytes_per_sec = 50e6;
  cfg.iops = 10000;
  cfg.base_read_latency = 100;
  cfg.base_write_latency = 50;
  return cfg;
}

TEST(Ssd, UncontendedReadLatencyNearBase) {
  SsdModel ssd(small_ssd());
  // 4 KiB at 10k IOPS: the IOPS cost (100 µs) dominates the bandwidth cost.
  SimTime lat = ssd.submit_read(kPageSize);
  EXPECT_GE(lat, 100);
  EXPECT_LE(lat, 300);
}

TEST(Ssd, LargeReadPaysBandwidthCost) {
  SsdModel ssd(small_ssd());
  SimTime lat = ssd.submit_read(100'000'000);  // 1 s at 100 MB/s
  EXPECT_NEAR(static_cast<double>(lat), 1e6, 1e4);
}

TEST(Ssd, WritesSlowerThanReads) {
  SsdModel ssd(small_ssd());
  SimTime r = ssd.submit_read(10_MiB);
  ssd.advance(sec(10));
  SimTime w = ssd.submit_write(10_MiB);
  EXPECT_GT(w, r);  // write bandwidth is half
}

TEST(Ssd, UtilizationAmplifiesNextQuantumLatency) {
  SsdModel ssd(small_ssd());
  SimTime idle = ssd.submit_read(kPageSize);
  ssd.advance(sec(1));
  // Load the read channel to ~80% utilization for one quantum.
  for (int i = 0; i < 8000; ++i) ssd.submit_read(kPageSize);
  ssd.advance(sec(1));
  EXPECT_NEAR(ssd.read_utilization(), 0.8, 0.01);
  SimTime busy = ssd.submit_read(kPageSize);
  // 100 µs cost stretched by 1/(1-0.8) = 5x.
  EXPECT_GT(busy, idle + 300);
}

TEST(Ssd, OverloadCarriesAcrossQuanta) {
  SsdModel ssd(small_ssd());
  // 2 s of work submitted into a 1 s quantum: 1 s carries over.
  for (int i = 0; i < 20000; ++i) ssd.submit_read(kPageSize);
  ssd.advance(sec(1));
  EXPECT_NEAR(ssd.read_backlog_seconds(), 1.0, 1e-6);
  SimTime lat = ssd.submit_read(kPageSize);
  EXPECT_GT(lat, sec(0.9));  // queued behind a second of backlog
  ssd.advance(sec(2));
  EXPECT_DOUBLE_EQ(ssd.read_backlog_seconds(), 0.0);
  ssd.advance(sec(1));
  EXPECT_LE(ssd.submit_read(kPageSize), 300);  // fully recovered
}

TEST(Ssd, WriteBacklogOnlyPartiallyDisturbsReads) {
  SsdModel ssd(small_ssd());
  // 3 s of write overload in one 1 s quantum: 2 s of write carry.
  for (int i = 0; i < 30000; ++i) ssd.submit_write(kPageSize);
  ssd.advance(sec(1));
  SimTime read_lat = ssd.submit_read(kPageSize);
  SimTime write_lat = ssd.submit_write(kPageSize);
  // Reads see only the interference fraction (0.2) of the write carry.
  EXPECT_LT(read_lat, write_lat / 2);
  EXPECT_GT(read_lat, sec(0.2) / 2);
}

TEST(Ssd, ChannelsAreIndependentUnderModestLoad) {
  SsdModel ssd(small_ssd());
  // Saturate writes mildly; reads should barely notice.
  for (int i = 0; i < 3000; ++i) ssd.submit_write(kPageSize);
  ssd.advance(sec(1));
  EXPECT_NEAR(ssd.write_utilization(), 0.3, 0.01);
  EXPECT_LE(ssd.submit_read(kPageSize), 400);
}

TEST(Ssd, IopsBoundVsBandwidthBound) {
  SsdModel ssd(small_ssd());
  // Per-op cost for 4 KiB: max(4096/100e6, 1/10000) = 100 µs (IOPS bound).
  ssd.submit_read(kPageSize);
  EXPECT_NEAR(ssd.read_backlog_seconds(), 1.0 / 10000, 1e-9);
  ssd.advance(sec(1));
  // Per-op cost for 1 MiB: 1 MiB / 100 MB/s ≈ 10.5 ms (bandwidth bound).
  ssd.submit_read(1_MiB);
  EXPECT_NEAR(ssd.read_backlog_seconds(), 1048576.0 / 100e6, 1e-9);
}

TEST(Ssd, StatsTrackTotalsAndWindows) {
  SsdModel ssd(small_ssd());
  ssd.submit_read(kPageSize);
  ssd.submit_write(2 * kPageSize);
  const DeviceStats& st = ssd.stats();
  EXPECT_EQ(st.reads, 1u);
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.bytes_read, kPageSize);
  EXPECT_EQ(st.bytes_written, 2 * kPageSize);
  EXPECT_EQ(st.window_bytes_read, kPageSize);
  ssd.mutable_stats().reset_window();
  EXPECT_EQ(ssd.stats().window_bytes_read, 0u);
  EXPECT_EQ(ssd.stats().bytes_read, kPageSize);  // totals survive
  ssd.submit_read(kPageSize);
  EXPECT_EQ(ssd.stats().window_reads, 1u);
  EXPECT_EQ(ssd.stats().reads, 2u);
}

}  // namespace
}  // namespace agile::storage

// Parallel sweep execution: result ordering and — the property everything
// rests on — bit-identical results whether a sweep point runs serially or on
// a pool worker.
#include <gtest/gtest.h>

#include <vector>

#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

namespace agile::bench {
namespace {

TEST(ParallelSweep, MapPreservesInputOrder) {
  std::vector<int> points;
  for (int i = 0; i < 100; ++i) points.push_back(i);
  ParallelSweep sweep(4);
  EXPECT_EQ(sweep.jobs(), 4u);
  std::vector<int> doubled = sweep.map(points, [](const int& v) { return 2 * v; });
  ASSERT_EQ(doubled.size(), points.size());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(doubled[static_cast<std::size_t>(i)], 2 * i);
  }
}

TEST(ParallelSweep, SingleJobRunsInline) {
  ParallelSweep sweep(1);
  EXPECT_EQ(sweep.jobs(), 1u);
  std::vector<int> points = {1, 2, 3};
  std::vector<int> out = sweep.map(points, [](const int& v) { return v + 1; });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

// The tentpole determinism guarantee: a Fig-7 sweep point produces identical
// MigrationMetrics whether it runs serially or through ParallelSweep, since
// every task owns its Simulation and Rng streams.
TEST(ParallelSweep, SingleVmPointDeterministicAcrossScheduling) {
  auto run_point = [](const core::Technique& technique) {
    core::scenarios::SingleVmOptions opt;
    opt.technique = technique;
    opt.host_ram = 1_GiB;
    opt.vm_memory = 512_MiB;
    opt.busy = true;
    opt.guest_os = 32_MiB;
    opt.free_margin = 64_MiB;
    core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
    sc.prepare();
    sc.run_migration();
    return sc.migration->metrics();
  };

  std::vector<core::Technique> points = {core::Technique::kPrecopy,
                                         core::Technique::kPostcopy,
                                         core::Technique::kAgile};
  std::vector<migration::MigrationMetrics> serial;
  serial.reserve(points.size());
  for (const core::Technique& t : points) serial.push_back(run_point(t));

  ParallelSweep sweep(4);
  std::vector<migration::MigrationMetrics> pooled = sweep.map(points, run_point);

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const migration::MigrationMetrics& a = serial[i];
    const migration::MigrationMetrics& b = pooled[i];
    EXPECT_EQ(a.start_time, b.start_time) << "point " << i;
    EXPECT_EQ(a.switchover_time, b.switchover_time) << "point " << i;
    EXPECT_EQ(a.end_time, b.end_time) << "point " << i;
    EXPECT_EQ(a.downtime, b.downtime) << "point " << i;
    EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << "point " << i;
    EXPECT_EQ(a.bytes_from_swap_device, b.bytes_from_swap_device) << "point " << i;
    EXPECT_EQ(a.bytes_scattered, b.bytes_scattered) << "point " << i;
    EXPECT_EQ(a.pages_sent_full, b.pages_sent_full) << "point " << i;
    EXPECT_EQ(a.pages_sent_descriptor, b.pages_sent_descriptor) << "point " << i;
    EXPECT_EQ(a.pages_demand_served, b.pages_demand_served) << "point " << i;
    EXPECT_EQ(a.pages_swap_faulted, b.pages_swap_faulted) << "point " << i;
    EXPECT_EQ(a.pages_swapped_in_at_source, b.pages_swapped_in_at_source)
        << "point " << i;
    EXPECT_EQ(a.duplicate_pages, b.duplicate_pages) << "point " << i;
    EXPECT_EQ(a.precopy_rounds, b.precopy_rounds) << "point " << i;
    EXPECT_EQ(a.completed, b.completed) << "point " << i;
  }
}

}  // namespace
}  // namespace agile::bench

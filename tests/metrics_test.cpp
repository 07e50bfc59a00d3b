#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/table.hpp"
#include "metrics/timeseries.hpp"

namespace agile::metrics {
namespace {

TimeSeries ramp() {
  TimeSeries ts("ramp");
  for (int i = 0; i <= 10; ++i) ts.add(i, i * 10.0);
  return ts;
}

TEST(TimeSeries, BasicAppendAndAccess) {
  TimeSeries ts("x");
  EXPECT_TRUE(ts.empty());
  ts.add(1.0, 5.0);
  ts.add(2.0, 7.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[1].value, 7.0);
  EXPECT_EQ(ts.name(), "x");
}

TEST(TimeSeries, MeanBetween) {
  TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.mean_between(0, 10), 50.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(4, 6), 50.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(100, 200), 0.0);
}

TEST(TimeSeries, MaxBetween) {
  TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.max_between(2, 5), 50.0);
}

TEST(TimeSeries, TimeToReach) {
  TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.time_to_reach(55.0, 0), 6.0);
  EXPECT_DOUBLE_EQ(ts.time_to_reach(55.0, 8), 8.0);
  EXPECT_DOUBLE_EQ(ts.time_to_reach(1000.0, 0), -1.0);
}

TEST(TimeSeries, TimeToReachWithHoldSkipsTransients) {
  TimeSeries ts("spiky");
  ts.add(0, 0);
  ts.add(1, 90);  // transient spike
  ts.add(2, 10);
  ts.add(3, 90);
  ts.add(4, 95);
  ts.add(5, 92);
  EXPECT_DOUBLE_EQ(ts.time_to_reach(85.0, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.time_to_reach(85.0, 0, 1.5), 3.0);
}

TEST(TimeSeries, MeanBetweenEdgeCases) {
  TimeSeries empty("empty");
  EXPECT_DOUBLE_EQ(empty.mean_between(0, 10), 0.0);

  TimeSeries ts = ramp();
  // Inverted window selects nothing.
  EXPECT_DOUBLE_EQ(ts.mean_between(6, 4), 0.0);
  // The window is closed on both ends: boundary samples are included.
  EXPECT_DOUBLE_EQ(ts.mean_between(4, 4), 40.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(0, 0), 0.0);   // sample (0, 0)
  EXPECT_DOUBLE_EQ(ts.mean_between(10, 10), 100.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(9, 10), 95.0);
  // Window straddling the series' end clips to existing samples.
  EXPECT_DOUBLE_EQ(ts.mean_between(9.5, 20), 100.0);
}

TEST(TimeSeries, TimeToReachEdgeCases) {
  TimeSeries empty("empty");
  EXPECT_DOUBLE_EQ(empty.time_to_reach(1.0, 0), -1.0);

  TimeSeries ts = ramp();
  // `from` past the last sample: nothing qualifies.
  EXPECT_DOUBLE_EQ(ts.time_to_reach(10.0, 11.0), -1.0);
  // `from` exactly on a qualifying sample counts (>= from, not >).
  EXPECT_DOUBLE_EQ(ts.time_to_reach(60.0, 6.0), 6.0);
  // Threshold met exactly at a sample value counts (>= threshold).
  EXPECT_DOUBLE_EQ(ts.time_to_reach(60.0, 0), 6.0);
  // A hold window running past the series' end still succeeds as long as
  // every remaining sample stays at or above the threshold.
  EXPECT_DOUBLE_EQ(ts.time_to_reach(90.0, 0, 100.0), 9.0);
  // Value that dips below the threshold at the end is rejected under hold.
  TimeSeries dip("dip");
  dip.add(0, 100);
  dip.add(1, 100);
  dip.add(2, 0);
  EXPECT_DOUBLE_EQ(dip.time_to_reach(50.0, 0, 5.0), -1.0);
}

TEST(TimeSeries, ValueAtIsLastSampleAtOrBefore) {
  TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.value_at(4.5), 40.0);
  EXPECT_DOUBLE_EQ(ts.value_at(-1), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100), 100.0);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"precopy", "470"});
  t.add_row({"agile", "108"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("| precopy | 470"), std::string::npos);
  EXPECT_NE(s.find("| agile"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
}

TEST(Table, WritesCsv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::string path = "/tmp/agile_metrics_test_table.csv";
  ASSERT_TRUE(t.write_csv(path).is_ok());
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(SeriesCsv, AlignsMultipleSeriesOnFirst) {
  TimeSeries a("a"), b("b");
  a.add(1, 10);
  a.add(2, 20);
  b.add(1.5, 99);
  std::string path = "/tmp/agile_metrics_test_series.csv";
  ASSERT_TRUE(write_series_csv(path, {&a, &b}).is_ok());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "t,a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,10,0");
  std::getline(f, line);
  EXPECT_EQ(line, "2,20,99");
  std::remove(path.c_str());
}

TEST(EnsureDir, CreatesNestedDirs) {
  EXPECT_TRUE(ensure_dir("/tmp/agile_metrics_test_dir/a/b").is_ok());
  std::ofstream f("/tmp/agile_metrics_test_dir/a/b/x");
  EXPECT_TRUE(f.good());
}

}  // namespace
}  // namespace agile::metrics

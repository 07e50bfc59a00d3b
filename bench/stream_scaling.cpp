// Stream scaling — total migration time vs parallel wire streams and
// modeled compression, per technique, on two network shapes:
//
//  * fat:  10 Gbps NIC with a 1 Gbps per-flow cap (a single TCP connection
//          cannot fill the pipe — PMigrate's motivating setup). Parallel
//          streams multiply the achievable rate until the NIC saturates.
//  * 1g:   the paper's 1 Gbps testbed, no per-flow cap. One flow already
//          saturates the NIC, so extra streams must NOT help — this column
//          is the control.
//
// Compression trades sender CPU for wire bytes: `fast` (LZO-class) is nearly
// free and shrinks the wire, `heavy` (zlib-class) compresses harder but can
// turn a wire-bound migration into a CPU-bound one. A fifth of the guest is
// all-zero pages, so zero-page elision contributes on every row.
//
// The deterministic per-run block is mirrored to stream_scaling_golden.txt
// (byte-identical across AGILE_BENCH_JOBS), and the fat-pipe 4-stream
// speedup per technique lands in BENCH_stream_scaling.json.
#include <cstring>
#include <map>

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"
#include "util/log.hpp"

using namespace agile;
using core::Technique;
using migration::Compression;

namespace {

struct Point {
  const char* scenario;  // "fat" or "1g"
  Technique technique;
  std::uint32_t streams;
  Compression compression;
};

migration::MigrationMetrics run_point(const Point& pt) {
  const bool quick = bench::quick_mode();
  char key[128];
  std::snprintf(key, sizeof(key), "streamscale_%s_%s_s%u_%s%s", pt.scenario,
                core::technique_name(pt.technique), pt.streams,
                migration::compression_name(pt.compression),
                quick ? "_quick" : "");
  bench::note("  [" + std::string(key) + "] running...");
  core::scenarios::SingleVmOptions opt;
  opt.technique = pt.technique;
  opt.host_ram = quick ? 1_GiB : 6_GiB;
  opt.vm_memory = quick ? 512_MiB : 4_GiB;
  opt.num_streams = pt.streams;
  opt.compression = pt.compression;
  opt.zero_page_fraction = 0.2;
  if (std::strcmp(pt.scenario, "fat") == 0) {
    opt.link_bits_per_sec = 10e9;
    opt.flow_max_bits_per_sec = 1e9;
    // One quantum of the aggregate rate (up to ~100 MB at 8 Gbps / 100 ms)
    // or the streams run dry between scheduling quanta.
    opt.send_window = 128_MiB;
  }
  opt.trace = !bench::trace_stem().empty();
  core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
  sc.prepare();
  sc.run_migration();
  bench::record_run(sc.bed->cluster().events_executed_total());
  if (!sc.migration->metrics().completed) bench::record_incomplete_run();
  if (sc.session != nullptr) {
    Status st = sc.session->recorder().write_chrome_json(
        bench::trace_stem() + "." + key + ".json");
    if (!st.is_ok()) AGILE_LOG_WARN("%s", st.message().c_str());
  }
  return sc.migration->metrics();
}

}  // namespace

int main() {
  bench::banner("Stream scaling: streams x compression x technique");
  const Technique techniques[] = {Technique::kPrecopy, Technique::kPostcopy,
                                  Technique::kAgile,
                                  Technique::kScatterGather};
  const std::vector<std::uint32_t> stream_counts =
      bench::quick_mode() ? std::vector<std::uint32_t>{1, 4}
                          : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<Compression> compressions =
      bench::quick_mode()
          ? std::vector<Compression>{Compression::kOff, Compression::kFast}
          : std::vector<Compression>{Compression::kOff, Compression::kFast,
                                     Compression::kHeavy};

  std::vector<Point> points;
  for (const char* scenario : {"fat", "1g"}) {
    for (Technique technique : techniques) {
      for (std::uint32_t streams : stream_counts) {
        for (Compression compression : compressions) {
          points.push_back({scenario, technique, streams, compression});
        }
      }
    }
  }
  bench::ParallelSweep sweep;
  std::vector<migration::MigrationMetrics> runs = sweep.map(points, run_point);

  metrics::Table table({"net", "technique", "streams", "compression",
                        "migration time (s)", "downtime (ms)", "wire (MiB)",
                        "zero elided", "saved (MiB)"});
  std::string golden;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const migration::MigrationMetrics& m = runs[i];
    table.add_row({pt.scenario, core::technique_name(pt.technique),
                   std::to_string(pt.streams),
                   migration::compression_name(pt.compression),
                   bench::migration_time_cell(m),
                   metrics::Table::num(static_cast<double>(m.downtime) / 1000.0, 0),
                   metrics::Table::num(to_mib(m.bytes_transferred), 0),
                   std::to_string(m.pages_zero_elided),
                   metrics::Table::num(to_mib(m.compressed_bytes_saved), 0)});
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s %s s%u %s total_us=%lld downtime_us=%lld wire=%llu "
                  "full=%llu desc=%llu zero=%llu saved=%llu demand=%llu\n",
                  pt.scenario, core::technique_name(pt.technique), pt.streams,
                  migration::compression_name(pt.compression),
                  static_cast<long long>(m.total_time()),
                  static_cast<long long>(m.downtime),
                  static_cast<unsigned long long>(m.bytes_transferred),
                  static_cast<unsigned long long>(m.pages_sent_full),
                  static_cast<unsigned long long>(m.pages_sent_descriptor),
                  static_cast<unsigned long long>(m.pages_zero_elided),
                  static_cast<unsigned long long>(m.compressed_bytes_saved),
                  static_cast<unsigned long long>(m.pages_demand_served));
    golden += line;
  }
  std::printf("\n%s\n", table.to_string().c_str());
  table.write_csv(bench::out_dir() + "/stream_scaling.csv");
  bench::write_golden("stream_scaling", golden);

  // Headline number: on the fat pipe, how much faster is 4 streams than 1
  // (both uncompressed) per technique?
  std::map<std::string, double> base_s, four_s;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const migration::MigrationMetrics& m = runs[i];
    if (std::strcmp(pt.scenario, "fat") != 0 ||
        pt.compression != Compression::kOff || !m.completed) {
      continue;
    }
    if (pt.streams == 1) base_s[core::technique_name(pt.technique)] =
        to_seconds(m.total_time());
    if (pt.streams == 4) four_s[core::technique_name(pt.technique)] =
        to_seconds(m.total_time());
  }
  std::string extra = "  \"fat_4stream_speedup\": {";
  double best = 0;
  std::string best_tech;
  bool first = true;
  for (const auto& [tech, t1] : base_s) {
    auto it = four_s.find(tech);
    if (it == four_s.end() || it->second <= 0) continue;
    double speedup = t1 / it->second;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.2f", first ? "" : ", ",
                  tech.c_str(), speedup);
    extra += buf;
    first = false;
    bench::note("  fat pipe, " + tech + ": 4 streams are " +
                metrics::Table::num(speedup, 2) + "x faster than 1");
    if (speedup > best) {
      best = speedup;
      best_tech = tech;
    }
  }
  extra += "},\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  \"fat_4stream_speedup_best\": %.2f,\n"
                  "  \"fat_4stream_speedup_best_technique\": \"%s\"",
                  best, best_tech.c_str());
    extra += buf;
  }

  bench::note("Expected: on the fat pipe (per-flow cap) time drops ~linearly "
              "with streams until the NIC or the sender CPU saturates; on the "
              "1 Gbps control extra streams change nothing. `heavy` can be "
              "slower than `fast` once compression CPU dominates.");
  bench::footer("stream_scaling", extra);
  return 0;
}

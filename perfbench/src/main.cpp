// Repository benchmark runner: runs one workload, prints every metric with
// its unit, and ends stdout with the JSON result line.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--expect-digest HEX] [--commit SHA] [--source-hash HEX]
//   perfbench_runner --self-test
//
// --trace 0  The schedule repeats (fresh set-up, same seed) until its timed
//            part has run --seconds in total and the workload's run_plan
//            is met. Reports the end-to-end metrics; timings are medians
//            over repetitions.
// --trace 1  The schedule runs untraced, then traced (fleet_racks: also
//            untraced at 1 lane). Reports the traced run's per-layer metrics.
//
// Every execution of one invocation must produce the same simulated-outcome
// digest, and it must equal --expect-digest when given (run.py passes the
// one perfbench/digests.txt commits for the workload and seed). The exit
// status is non-zero when any output check fails.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_self_test();
}  // namespace perfbench

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expect_digest;  ///< Empty: no committed digest for this seed.
  std::string commit = "unknown";
  std::string source_hash = "unknown";
  bool self_test = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (key == "--expect-digest") {
      a.expect_digest = v;
    } else if (key == "--commit") {
      a.commit = v;
    } else if (key == "--source-hash") {
      a.source_hash = v;
    } else {
      return false;
    }
  }
  return true;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// A further repetition starts only while the previous one would still end
/// inside this wall budget (an invocation must finish within 180 s).
constexpr double kRepetitionBudgetS = 120;

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool known = false;
  if (parse(argc, argv, args)) {
    for (const std::string& w : workload_names()) known |= w == args.workload;
  }
  if (args.self_test) return run_self_test();
  if (!known || (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload paper_sweep|fleet_racks "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  const std::int64_t start = wall_ns();
  std::vector<Execution> runs;
  std::vector<std::string> labels;
  if (args.trace == 0) {
    const RunPlan plan = run_plan(args.workload);
    double measured = 0;
    for (;;) {
      const std::int64_t rep_start = wall_ns();
      const std::uint32_t setups = runs.empty() ? plan.first_setups : 1;
      runs.push_back(run_workload({args.workload, args.seed, false, 0, setups}));
      labels.push_back("rep" + std::to_string(runs.size() - 1));
      measured += runs.back().run_s;
      const double rep_wall = static_cast<double>(wall_ns() - rep_start) / 1e9;
      const double elapsed = static_cast<double>(wall_ns() - start) / 1e9;
      const bool enough =
          measured >= args.seconds && runs.size() >= plan.repetitions;
      if (enough || elapsed + rep_wall > kRepetitionBudgetS) break;
    }
  } else {
    runs.push_back(run_workload({args.workload, args.seed, false, 0, 1}));
    labels.push_back("untraced");
    runs.push_back(run_workload({args.workload, args.seed, true, 0, 1}));
    labels.push_back("traced");
    if (default_lanes(args.workload) > 1) {
      runs.push_back(run_workload({args.workload, args.seed, false, 1, 1}));
      labels.push_back("untraced-1lane");
    }
  }

  // Output checks: each execution's own validity gates, then one digest for
  // every execution of the invocation, equal to the committed one.
  std::vector<std::string> failures;
  const unsigned long long digest = fnv1a(runs.front().digest_text);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx", digest);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const std::string& f : runs[i].failures) {
      failures.push_back(labels[i] + ": " + f);
    }
    if (fnv1a(runs[i].digest_text) != digest) {
      failures.push_back(labels[i] + ": digest differs from " + labels[0]);
    }
  }
  if (!args.expect_digest.empty() && args.expect_digest != digest_hex) {
    failures.push_back("digest " + std::string(digest_hex) +
                       " differs from the committed " + args.expect_digest);
  }
  if (args.trace == 1) {
    const Execution& traced = runs[1];
    const double covered =
        ratio(static_cast<double>(traced.phases.quantum_phases_ns()),
              traced.run_s * 1e9);
    if (covered < 0.95) {
      failures.push_back("traced: quantum phases cover only " +
                         std::to_string(100 * covered) + "% of run_s");
    }
  }
  const bool correct = failures.empty();
  const Tally counts = tally(runs, correct);

  const std::vector<Metric> metrics =
      args.trace == 0
          ? end_to_end_metrics(runs, peak_rss_mib(), correct)
          : per_layer_metrics(runs[1], runs[0]);

  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"cores\": %u, \"lanes\": %u, \"build_type\": \"%s\", "
      "\"git_commit\": \"%s\", \"source_hash\": \"%s\", \"executions\": %zu, "
      "\"digest\": \"%s\", \"committed_digest\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, std::thread::hardware_concurrency(), runs.front().lanes,
      PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.source_hash.c_str(),
      runs.size(), digest_hex,
      args.expect_digest.empty() ? "none" : args.expect_digest.c_str());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Execution& e = runs[i];
    std::string setups;
    for (double s : e.setup_s) {
      setups += (setups.empty() ? "" : ",") + std::to_string(s);
    }
    std::printf(
        "execution %s: lanes=%u setup_s=[%s] run_s=%.3f launched=%llu "
        "completed=%llu digest=%016llx\n",
        labels[i].c_str(), e.lanes, setups.c_str(), e.run_s,
        static_cast<unsigned long long>(e.launched),
        static_cast<unsigned long long>(e.completed), fnv1a(e.digest_text));
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              json_result(correct, counts.attempted, counts.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

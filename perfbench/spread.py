#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed, one run at a time, through run.py, and
reports for each metric its median and its spread: the interquartile range
over the median, with quartiles as statistics.quantiles(values, n=4) gives
them. Beside each spread stands the bound BENCHMARK.json fixes for the
metric; a steady benchmark keeps every spread below a third of it.

With --write-digests it records each run's simulated-outcome digest in
digests.txt, replacing the committed one: do this only after a deliberate
change of simulated outcomes, for every workload on seeds 1-10 and 1009.

  python3 perfbench/spread.py --workload fleet_racks --seeds 1-10
  python3 perfbench/spread.py --workload paper_sweep --seeds 3,5,7 --trace 1
  python3 perfbench/spread.py --workload paper_sweep --seeds 1-10,1009 --write-digests
  python3 perfbench/spread.py --self-test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.txt")


def spread(values):
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_digest(stdout):
    """The digest on the runner's provenance line, or None."""
    for line in stdout.splitlines():
        if line.startswith("provenance: "):
            return json.loads(line[len("provenance: "):]).get("digest")
    return None


def write_digests(workload, digests):
    """Replaces the committed digests of `workload` for the given seeds."""
    header, entries = [], {}
    with open(DIGESTS) as f:
        for line in f:
            fields = line.split()
            if line.startswith("#"):
                header.append(line)
            elif len(fields) == 3:
                entries[(fields[0], int(fields[1]))] = fields[2]
    for seed, digest in digests.items():
        entries[(workload, seed)] = digest
    with open(DIGESTS, "w") as f:
        f.writelines(header)
        for (name, seed), digest in sorted(entries.items()):
            f.write("%s %d %s\n" % (name, seed, digest))


def self_test():
    failures = 0

    def expect(what, got, want):
        nonlocal failures
        if abs(got - want) > 1e-12:
            print("FAIL %s: got %r, want %r" % (what, got, want))
            failures += 1

    # statistics.quantiles' default (exclusive) method on 1..10 gives
    # 2.75 and 8.25; the median is 5.5.
    expect("spread 1..10", spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
    expect("spread constant", spread([4.0, 4.0, 4.0, 4.0]), 0.0)
    expect("spread zeros", spread([0.0, 0.0, 0.0]), 0.0)
    expect("spread single", spread([3.0]), 0.0)
    expect("seeds", float(len(parse_seeds("1-3,7"))), 4.0)
    print("spread self-test: %s" % ("ok" if failures == 0 else "FAILED"))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="commit each run's digest to digests.txt")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    digests = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        result["seed"] = seed
        result["exit"] = proc.returncode
        results.append(result)
        digests[seed] = run_digest(proc.stdout)
        times = " ".join(
            "%s %.3f" % (name, result["metrics"][name]["value"])
            for name in ("run_s", "setup_s")
            if name in result.get("metrics", {}))
        print("seed %d: exit %d correct %s digest %s %s" %
              (seed, proc.returncode, result.get("correct"), digests[seed],
               times), flush=True)
        for line in lines:
            if line.startswith("CHECK FAILED"):
                print("  " + line)
    if args.write_digests:
        if None in digests.values():
            print("a run printed no digest; digests.txt left unchanged")
            return 1
        write_digests(args.workload, digests)

    names = list(results[0].get("metrics", {}))
    worst = 0.0
    print("%-32s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound",
                                      "verdict"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results
                  if name in r.get("metrics", {})]
        s = spread(values)
        bound = bounds.get(name) if args.trace == 0 else None
        verdict = ""
        if bound:
            verdict = ("ok" if s < bound / 3 else
                       "over a third" if s <= bound else "OVER BOUND")
            if name != "setup_s":
                worst = max(worst, s / bound)
        print("%-32s %14.6g %9.4f %7s  %s" %
              (name, statistics.median(values), s,
               "-" if bound is None else "%.3g" % bound, verdict))
    ok = all(r.get("correct") and r["exit"] == 0 for r in results)
    print("all runs correct: %s; worst spread/bound (setup_s excluded): %.3f" %
          (ok, worst))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Builds the simulator and the benchmark runner from source with CMake into
.bench_build/ (or $CARGO_TARGET_DIR) at the checkout root, then runs one
workload. Every metric is printed with its unit; the last line of stdout is
the JSON result. Exits non-zero when the build or an output check fails;
one check is that the run's simulated-outcome digest equals the one
perfbench/digests.txt commits for its workload and seed.

  python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.txt")
WORKLOADS = ("paper_sweep", "fleet_racks")
# A run may take 180 s in all; the runner binary gets most of it.
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
    return proc.returncode == 0


def build(out_dir):
    """Configures (when needed) and builds; returns the runner path or None."""
    generated = any(os.path.exists(os.path.join(out_dir, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        # A cache left by a failed or foreign configure would pin it.
        for stale in ("CMakeCache.txt", "CMakeFiles"):
            path = os.path.join(out_dir, stale)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            sys.stderr.write("perfbench: configure failed\n")
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not run_quiet(["cmake", "--build", out_dir, "-j", jobs]):
        sys.stderr.write("perfbench: build failed\n")
        return None
    return os.path.join(out_dir, "perfbench_runner")


def source_hash():
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def committed_digest(workload, seed):
    """The simulated-outcome digest digests.txt commits for this workload
    and seed, or None when the seed has none."""
    with open(DIGESTS) as f:
        for line in f:
            fields = line.split()
            if (len(fields) == 3 and not line.startswith("#")
                    and fields[:2] == [workload, str(seed)]):
                return fields[2]
    return None


def clean_env():
    """The simulator reads AGILE_* knobs (lanes, audit, trace) from the
    environment; the benchmark fixes them itself."""
    return {k: v for k, v in os.environ.items() if not k.startswith("AGILE_")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="minimum measured schedule time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    runner = build(build_dir())
    if runner is None:
        return 2
    if args.self_test:
        return subprocess.run([runner, "--self-test"], env=clean_env()).returncode

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-hash", source_hash()]
    expected = committed_digest(args.workload, args.seed)
    if expected is not None:
        cmd += ["--expect-digest", expected]
    try:
        proc = subprocess.run(cmd, env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

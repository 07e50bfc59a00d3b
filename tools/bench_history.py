#!/usr/bin/env python3
"""Collect bench footers into a trajectory file and judge regressions.

Usage:
    bench_history.py collect OUT_DIR TRAJECTORY.json [--label TEXT]
    bench_history.py report TRAJECTORY.json [--threshold PCT]
    bench_history.py --self-test

Every bench binary writes a `BENCH_<name>.json` footer into its output
directory (see bench/bench_common.hpp): bench name, quick/full mode, wall
seconds, job count, runs executed, total simulated events, the headline
`events_per_sec` throughput and the process's peak resident memory
`peak_rss_mib` (older footers lack it). A single footer is a point; this
tool makes them a line:

  `collect` scans OUT_DIR for BENCH_*.json files and appends one entry per
  footer to TRAJECTORY.json (creating it on first use), tagging each entry
  with a monotonically increasing run index and an optional --label (a git
  sha, a PR number, "before"/"after" — any string worth reading later).
  Footers are keyed by (bench, quick, jobs): points from different modes are
  separate series, so a quick smoke run never pollutes a full run's history.

  `report` prints one verdict per series comparing the newest entry's
  events_per_sec against the MEDIAN of all previous entries (the median
  shrugs off a single noisy outlier run, which a mean would chase):

      OK          within --threshold percent of the median (default 10)
      REGRESSED   slower than median by more than the threshold
      IMPROVED    faster than median by more than the threshold
      NEW         first entry for this series, nothing to compare

  Each verdict line also shows the newest entry's peak RSS when its footer
  recorded one.

Exit status: 0 on success — including REGRESSED verdicts; the tool reports,
the reader decides (sim throughput varies across machines, so a hard gate
belongs in CI config, not here). 2 on usage or parse errors.
"""

import glob
import json
import os
import sys

DEFAULT_THRESHOLD_PCT = 10.0

# Footer fields copied into each trajectory entry, footer order.
FOOTER_FIELDS = (
    "bench", "quick", "wall_seconds", "jobs", "runs_executed",
    "runs_incomplete", "incomplete", "sim_events", "events_per_sec",
    "peak_rss_mib",
)


def series_key(entry):
    """(bench, quick, jobs): one history series per bench mode."""
    return (entry.get("bench", "?"), bool(entry.get("quick")),
            entry.get("jobs", 0))


def series_label(key):
    bench, quick, jobs = key
    return f"{bench} [{'quick' if quick else 'full'}, jobs={jobs}]"


def load_trajectory(path):
    if not os.path.exists(path):
        return {"entries": []}
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc.get("entries"), list):
        raise ValueError(f"{path}: no entries array")
    return doc


def collect(out_dir, trajectory_path, label=""):
    """Appends every BENCH_*.json footer in out_dir to the trajectory.
    Returns the number of footers appended."""
    footers = sorted(glob.glob(os.path.join(out_dir, "BENCH_*.json")))
    if not footers:
        raise ValueError(f"{out_dir}: no BENCH_*.json footers found")
    doc = load_trajectory(trajectory_path)
    run_index = 1 + max((e.get("run", 0) for e in doc["entries"]), default=0)
    appended = 0
    for path in footers:
        with open(path, "r", encoding="utf-8") as f:
            footer = json.load(f)
        if "bench" not in footer or "events_per_sec" not in footer:
            raise ValueError(f"{path}: not a bench footer "
                             f"(missing bench/events_per_sec)")
        entry = {"run": run_index}
        if label:
            entry["label"] = label
        for field in FOOTER_FIELDS:
            if field in footer:
                entry[field] = footer[field]
        doc["entries"].append(entry)
        appended += 1
    with open(trajectory_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return appended


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def verdicts(doc, threshold_pct=DEFAULT_THRESHOLD_PCT):
    """[(series_label, verdict, latest, baseline_median, delta_pct,
    latest_peak_rss_mib or None)] in first-seen series order; latest entry
    per series vs the median of its predecessors."""
    by_series = {}
    for entry in doc["entries"]:
        by_series.setdefault(series_key(entry), []).append(entry)
    out = []
    for key, entries in by_series.items():
        latest = entries[-1]["events_per_sec"]
        rss = entries[-1].get("peak_rss_mib")
        prior = [e["events_per_sec"] for e in entries[:-1]]
        if not prior:
            out.append((series_label(key), "NEW", latest, None, None, rss))
            continue
        base = median(prior)
        delta_pct = 0.0 if base == 0 else 100.0 * (latest - base) / base
        if delta_pct < -threshold_pct:
            verdict = "REGRESSED"
        elif delta_pct > threshold_pct:
            verdict = "IMPROVED"
        else:
            verdict = "OK"
        out.append((series_label(key), verdict, latest, base, delta_pct, rss))
    return out


def print_report(doc, threshold_pct):
    rows = verdicts(doc, threshold_pct)
    if not rows:
        print("no entries")
        return
    print(f"{len(doc['entries'])} entr(y/ies), {len(rows)} series, "
          f"threshold {threshold_pct:g}%")
    for label, verdict, latest, base, delta_pct, rss in rows:
        rate = f"{latest} events/s"
        if rss is not None:
            rate += f", peak RSS {rss} MiB"
        if verdict == "NEW":
            print(f"  NEW        {label}: {rate} (first entry, no baseline)")
        else:
            print(f"  {verdict:<10} {label}: {rate} vs "
                  f"median {base:.0f} events/s ({delta_pct:+.1f}%)")


def self_test():
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "bench_out")
        os.mkdir(out_dir)
        traj = os.path.join(tmp, "trajectory.json")

        def write_footer(bench, eps, quick=True, jobs=1, rss=None):
            footer = {"bench": bench, "quick": quick, "wall_seconds": 1.0,
                      "jobs": jobs, "runs_executed": 4,
                      "runs_incomplete": 0, "incomplete": False,
                      "sim_events": 1000, "events_per_sec": eps}
            if rss is not None:
                footer["peak_rss_mib"] = rss
            with open(os.path.join(out_dir, f"BENCH_{bench}.json"), "w",
                      encoding="utf-8") as f:
                json.dump(footer, f)

        # Run 1: two benches, everything NEW.
        write_footer("fig7", 5000)
        write_footer("fleet", 2000)
        assert collect(out_dir, traj, label="r1") == 2
        rows = verdicts(load_trajectory(traj))
        assert [(r[0].split(" ")[0], r[1]) for r in rows] == \
            [("fig7", "NEW"), ("fleet", "NEW")], rows

        # Runs 2-3 build a baseline; run 4 regresses one bench only.
        write_footer("fig7", 5200)
        write_footer("fleet", 2040)
        collect(out_dir, traj, label="r2")
        write_footer("fig7", 4900)
        write_footer("fleet", 1980)
        collect(out_dir, traj, label="r3")
        write_footer("fig7", 2500)   # far below median(5000,5200,4900)=5000
        write_footer("fleet", 2300)  # above median(2000,2040,1980)=2020 +13%
        collect(out_dir, traj, label="r4")
        rows = {r[0].split(" ")[0]: r for r in verdicts(load_trajectory(traj))}
        assert rows["fig7"][1] == "REGRESSED", rows["fig7"]
        assert rows["fig7"][3] == 5000.0, rows["fig7"]
        assert rows["fleet"][1] == "IMPROVED", rows["fleet"]
        # A looser threshold turns the improvement into OK.
        loose = {r[0].split(" ")[0]: r
                 for r in verdicts(load_trajectory(traj), threshold_pct=20)}
        assert loose["fleet"][1] == "OK", loose["fleet"]
        assert loose["fig7"][1] == "REGRESSED", loose["fig7"]

        # Mode split: the same bench at jobs=4 is a separate NEW series.
        write_footer("fig7", 9000, jobs=4)
        os.remove(os.path.join(out_dir, "BENCH_fleet.json"))
        collect(out_dir, traj)
        rows = verdicts(load_trajectory(traj))
        jobs4 = [r for r in rows if "jobs=4" in r[0]]
        assert len(jobs4) == 1 and jobs4[0][1] == "NEW", rows

        # Peak RSS: a footer that records it carries it into the trajectory
        # and the report; an older footer without it reports rate alone.
        write_footer("fig7", 9100, jobs=4, rss=123.4)
        write_footer("fleet", 2010)
        collect(out_dir, traj, label="r6")
        doc = load_trajectory(traj)
        assert doc["entries"][-2]["bench"] == "fig7", doc["entries"][-2]
        assert doc["entries"][-2]["peak_rss_mib"] == 123.4, doc["entries"][-2]
        assert "peak_rss_mib" not in doc["entries"][-1], doc["entries"][-1]
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            print_report(doc, DEFAULT_THRESHOLD_PCT)
        lines = report.getvalue().splitlines()
        fig7 = [l for l in lines if "fig7 [quick, jobs=4]" in l]
        fleet = [l for l in lines if "fleet [quick, jobs=1]" in l]
        assert len(fig7) == 1 and \
            "9100 events/s, peak RSS 123.4 MiB vs" in fig7[0], lines
        assert len(fleet) == 1 and "peak RSS" not in fleet[0], lines

        # Labels and run indices persist in the trajectory.
        doc = load_trajectory(traj)
        assert doc["entries"][0]["label"] == "r1"
        assert doc["entries"][-1]["run"] == 6, doc["entries"][-1]

        # A non-footer JSON is a parse error, not a silent skip.
        with open(os.path.join(out_dir, "BENCH_bogus.json"), "w",
                  encoding="utf-8") as f:
            f.write('{"not": "a footer"}')
        try:
            collect(out_dir, traj)
            raise AssertionError("bogus footer accepted")
        except ValueError:
            pass

        # An empty directory is an error too.
        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        try:
            collect(empty, traj)
            raise AssertionError("empty dir accepted")
        except ValueError:
            pass

    print("bench_history self-test: OK")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) >= 4 and argv[1] == "collect":
        label = ""
        rest = argv[4:]
        if rest and rest[0] == "--label" and len(rest) == 2:
            label = rest[1]
        elif rest:
            sys.stderr.write(__doc__)
            return 2
        n = collect(argv[2], argv[3], label)
        print(f"collected {n} footer(s) into {argv[3]}")
        return 0
    if len(argv) >= 3 and argv[1] == "report":
        threshold = DEFAULT_THRESHOLD_PCT
        rest = argv[3:]
        if rest and rest[0] == "--threshold" and len(rest) == 2:
            threshold = float(rest[1])
        elif rest:
            sys.stderr.write(__doc__)
            return 2
        print_report(load_trajectory(argv[2]), threshold)
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except (OSError, ValueError, json.JSONDecodeError) as err:
        sys.stderr.write(f"bench_history: {err}\n")
        sys.exit(2)

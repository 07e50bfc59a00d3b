#!/usr/bin/env python3
"""Determinism lint for the agile-migration simulator.

The simulator's contract is bit-for-bit reproducible runs: identical seeds and
configs must produce identical metrics (the golden tests and the bench
determinism harness depend on it). This lint bans the constructs that
silently break that contract:

  wall-clock   std::chrono::system_clock / steady_clock /
               high_resolution_clock, time(), gettimeofday, clock_gettime —
               simulation logic must use SimTime, never host time.
  ambient rng  rand()/srand(), std::random_device, raw std::mt19937
               construction — all randomness must flow through util/rng so it
               is seeded explicitly.
  ptr-keyed    std::unordered_map/set keyed on a pointer type — iteration
               order follows the allocator, which varies run to run.
  uninit POD   scalar members without initializers in structs named
               *Metrics/*Stats/*Config/*Params/*Message/*Header — these
               structs are aggregate-built and memcmp'd/serialized, so an
               unwritten member leaks indeterminate bytes.

src/trace/, src/sim/, src/host/, src/core/, src/stats/, src/net/ and the
multi-stream wire module (src/migration/wire.* and stream_group.*) get a
stricter zero-tolerance profile on top of the above: trace exports, the event
core (heap + sharded lanes — execution order must be identical at every lane
count), the cluster orchestration layer, the scenario/testbed layer and the
network topology/allocation model (multi-hop routing plus the progressive-
filling allocator — flow delivery order feeds every golden byte count, and
the FleetRebalancer in src/core audits it move by move) drive everything the
golden tests pin byte-for-byte, so these modules may not even *include*
<chrono> or <random>, read the environment (getenv), or use unordered
containers at all (delivery and export order must never depend on hashing).
The one sanctioned getenv — the AGILE_SIM_LANES lane-count knob in
host/cluster.cpp, which selects *how* the identical schedule is computed,
never *what* it is — is carried as a justified allowlist entry.

Scope: src/, bench/ and examples/ (tests may use wall clocks for timeouts).
Exceptions go in tools/lint_determinism_allow.txt, one per line:

    path-suffix :: line-substring   # rationale

A finding is waived when the file path ends with `path-suffix` and the
offending line contains `line-substring`. Every entry must still match at
least one source line that would otherwise be a finding: stale entries are
hard errors (exit 2), so the allowlist can only shrink over time unless
someone writes down a new rationale.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "bench", "examples")
EXTS = (".cpp", ".hpp", ".cc", ".h")
ALLOWLIST_PATH = os.path.join(REPO, "tools", "lint_determinism_allow.txt")

WALL_CLOCK = [
    (re.compile(r"\bsystem_clock\b"), "wall-clock: std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "wall-clock: std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "wall-clock: std::chrono::high_resolution_clock"),
    (re.compile(r"(?:^|[^_A-Za-z:.>])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "wall-clock: time()"),
    (re.compile(r"\bgettimeofday\s*\("), "wall-clock: gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "wall-clock: clock_gettime()"),
]

AMBIENT_RNG = [
    (re.compile(r"(?:^|[^_A-Za-z.:>])s?rand\s*\("), "ambient rng: rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "ambient rng: std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "ambient rng: raw std::mt19937"),
]

# std::unordered_map<Key*, ...> / unordered_set<Key*>: first template argument
# contains a '*' before the ',' or '>'.
PTR_KEYED = re.compile(r"\bunordered_(?:map|set)\s*<[^,<>]*\*")

# Stricter rules for the zero-tolerance modules. src/trace/ is the instrument
# every other determinism check reads through; the wire module (WireStream +
# StreamGroup) is the migration data path whose delivery order the golden
# metrics, golden traces and the multi-stream fences all pin byte-for-byte.
def strict_rules(module):
    return [
        (re.compile(r"#\s*include\s*<chrono>"),
         f"{module} module: <chrono> banned (timestamps come from the "
         "simulated clock only)"),
        (re.compile(r"#\s*include\s*<random>"),
         f"{module} module: <random> banned (no randomness in this path)"),
        (re.compile(r"\bgetenv\s*\("),
         f"{module} module: getenv banned (behaviour is configured by API, "
         "not ambient environment)"),
        (re.compile(r"\bunordered_(?:map|set)\b"),
         f"{module} module: unordered containers banned (ordering must not "
         "depend on hashing)"),
    ]


TRACE_STRICT = strict_rules("trace")
WIRE_STRICT = strict_rules("wire")
# The event core: the heap and the sharded lane coordinator decide execution
# order for everything else, and that order must be identical at every lane
# count (AGILE_SIM_LANES itself is resolved in host/cluster and carried as a
# justified allowlist entry).
SIM_STRICT = strict_rules("sim")
# Cluster orchestration (quantum loop, lane planning, migration scheduling):
# everything here runs inside the simulated clock and is pinned by the golden
# fleet/consolidation metrics.
HOST_STRICT = strict_rules("host")
# Scenario factories and the testbed: they *construct* the deterministic
# world, so any ambient input here skews every golden table downstream.
CORE_STRICT = strict_rules("core")
# The metrics registry: golden stats snapshots are byte-compared across lane
# counts, job counts and reruns, so the module may not read wall clocks, the
# environment, or order anything by hash.
STATS_STRICT = strict_rules("stats")
# The network model: static multi-hop routing and the max–min progressive-
# filling allocator decide per-quantum delivered bytes, which every migration
# golden, the per-tier stats gauges and the fleet_topology golden block pin
# byte-for-byte across lane/job counts. (The FleetRebalancer that audits
# moves over this fabric lives in src/core and rides the core profile.)
NET_STRICT = strict_rules("net")


def in_trace_module(relpath):
    return relpath.startswith("src" + os.sep + "trace" + os.sep)


def in_sim_module(relpath):
    return relpath.startswith("src" + os.sep + "sim" + os.sep)


def in_host_module(relpath):
    return relpath.startswith("src" + os.sep + "host" + os.sep)


def in_core_module(relpath):
    return relpath.startswith("src" + os.sep + "core" + os.sep)


def in_stats_module(relpath):
    return relpath.startswith("src" + os.sep + "stats" + os.sep)


def in_net_module(relpath):
    return relpath.startswith("src" + os.sep + "net" + os.sep)


def in_wire_module(relpath):
    base = os.path.basename(relpath)
    return (os.sep + "migration" + os.sep in relpath
            and (base.startswith("wire") or base.startswith("stream_group")))

STRUCT_NAME = re.compile(
    r"^\s*struct\s+(\w*(?:Metrics|Stats|Config|Params|Message|Header))\b[^;]*$")
# A scalar member without an initializer: `type name;` where type is an
# arithmetic/typedef-looking token chain and there is no '=' or '{' before ';'.
SCALAR_MEMBER = re.compile(
    r"^\s*(?:const\s+)?"
    r"((?:unsigned\s+|signed\s+|long\s+|short\s+)*"
    r"(?:bool|char|int|long|short|float|double|size_t|std::size_t|"
    r"std::u?int\d+_t|u?int\d+_t|SimTime|Bytes|PageIndex|NodeId))\s+"
    r"(\w+)\s*;\s*(?://.*)?$")


def strip_line_comment(line):
    """Remove a trailing // comment (string literals are rare enough in this
    codebase that we accept the occasional false negative inside one)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def load_allowlist():
    entries = []
    if not os.path.exists(ALLOWLIST_PATH):
        return entries
    with open(ALLOWLIST_PATH, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "::" not in line:
                print(f"lint_determinism: bad allowlist entry: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            suffix, substr = (part.strip() for part in line.split("::", 1))
            entries.append({"suffix": suffix, "substr": substr,
                            "lineno": lineno, "used": False})
    return entries


def allowed(entries, relpath, line):
    hit = False
    for e in entries:
        if relpath.endswith(e["suffix"]) and e["substr"] in line:
            e["used"] = True
            hit = True
    return hit


def in_rng_module(relpath):
    base = os.path.basename(relpath)
    return os.sep + "util" + os.sep in relpath and base.startswith("rng")


def scan_file(relpath, allow):
    findings = []
    path = os.path.join(REPO, relpath)
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()

    in_block_comment = False
    struct_stack = []  # (name, brace_depth_at_entry)
    depth = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        # Block comments: drop commented spans (coarse, line-granular).
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in line and "*/" not in line:
            line = line.split("/*", 1)[0]
            in_block_comment = True
        line = strip_line_comment(line)
        if not line.strip():
            depth += raw.count("{") - raw.count("}")
            continue

        def report(msg, text=line):
            if not allowed(allow, relpath, raw):
                findings.append((relpath, lineno, msg, text.strip()))

        for pat, msg in WALL_CLOCK:
            if pat.search(line):
                report(msg)
        if not in_rng_module(relpath):
            for pat, msg in AMBIENT_RNG:
                if pat.search(line):
                    report(msg)
        if PTR_KEYED.search(line):
            report("pointer-keyed unordered container (iteration order is "
                   "allocator-dependent)")
        if in_trace_module(relpath):
            for pat, msg in TRACE_STRICT:
                if pat.search(line):
                    report(msg)
        if in_sim_module(relpath):
            for pat, msg in SIM_STRICT:
                if pat.search(line):
                    report(msg)
        if in_host_module(relpath):
            for pat, msg in HOST_STRICT:
                if pat.search(line):
                    report(msg)
        if in_core_module(relpath):
            for pat, msg in CORE_STRICT:
                if pat.search(line):
                    report(msg)
        if in_stats_module(relpath):
            for pat, msg in STATS_STRICT:
                if pat.search(line):
                    report(msg)
        if in_net_module(relpath):
            for pat, msg in NET_STRICT:
                if pat.search(line):
                    report(msg)
        if in_wire_module(relpath):
            for pat, msg in WIRE_STRICT:
                if pat.search(line):
                    report(msg)

        m = STRUCT_NAME.match(line)
        if m and ";" not in line:
            struct_stack.append((m.group(1), depth))
        if struct_stack:
            name, entry_depth = struct_stack[-1]
            mm = SCALAR_MEMBER.match(line)
            # Only direct members (depth is entry_depth + 1 inside the body).
            if mm and depth == entry_depth + 1:
                report(f"uninitialized scalar member '{mm.group(2)}' in "
                       f"struct {name} (add a default initializer)")
        depth += line.count("{") - line.count("}")
        while struct_stack and depth <= struct_stack[-1][1]:
            struct_stack.pop()
    return findings


def main():
    allow = load_allowlist()
    findings = []
    for top in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, top)):
            for fn in sorted(filenames):
                if not fn.endswith(EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), REPO)
                findings.extend(scan_file(rel, allow))
    stale = [e for e in allow if not e["used"]]
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s):\n")
        for relpath, lineno, msg, text in findings:
            print(f"  {relpath}:{lineno}: {msg}\n      {text}")
        print("\nFix the construct or add a justified entry to "
              "tools/lint_determinism_allow.txt")
        return 1
    if stale:
        for e in stale:
            print(f"lint_determinism: stale allowlist entry at "
                  f"tools/lint_determinism_allow.txt:{e['lineno']} "
                  f"({e['suffix']} :: {e['substr']}) matches no source line "
                  f"— delete it")
        return 2
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

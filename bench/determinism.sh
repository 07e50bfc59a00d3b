#!/usr/bin/env bash
# Harness for the bench tests that run a bench once and check what the run
# wrote (see bench/CMakeLists.txt).
#
#   determinism.sh run <outdir> <bench binary> [stats] [VAR=VAL ...]
#       Runs the bench once, in quick mode, into a fresh <outdir>. Every knob
#       the configuration does not set is pinned: 1 sweep job, 1 event lane,
#       audit off, stats and trace off. `stats` sets AGILE_STATS=<outdir>/s.
#
#   determinism.sh compare <dir> <golden file> <base> <config>... \
#                  [--stats <config>...]
#       Byte-compares <dir>/<config>/<golden file> with the base
#       configuration's for every config. Configurations listed after
#       --stats ran with stats on: each of the base's stats files (s.*; there
#       must be some) must also exist in the config, byte-identical. Exits
#       non-zero on any difference or missing file.
#
#   determinism.sh view <dir> <primary csv> <view csv> <keys>
#       Checks that a run printed a second view of its sweep: <dir>/<view
#       csv> must have one row per row of <dir>/<primary csv>, in the same
#       order, with the same first <keys> columns (a parenthesised unit
#       aside, so "YCSB/Redis (ops/s)" keys the same row as "YCSB/Redis").
#
#   determinism.sh self-test
#       Proves that compare fails on a one-byte change, a missing golden and
#       missing stats files, that view fails on a missing view, a missing
#       row and a changed key, and that both pass on matching outputs.
set -euo pipefail

run() {
  local out=$1 bin=$2
  shift 2
  local stats=()
  if [ "${1:-}" = stats ]; then
    stats=("AGILE_STATS=$out/s")
    shift
  fi
  rm -rf "$out"
  mkdir -p "$out"
  env -u AGILE_STATS -u AGILE_TRACE AGILE_BENCH_QUICK=1 AGILE_BENCH_JOBS=1 \
      AGILE_SIM_LANES=1 AGILE_AUDIT=0 AGILE_BENCH_OUT="$out" \
      ${stats[@]+"${stats[@]}"} "$@" "$bin"
}

compare() {
  local dir=$1 golden=$2 base=$3
  shift 3
  local fail=0 stats=0 config f base_stats
  base_stats=$(cd "$dir/$base" 2> /dev/null && ls s.* 2> /dev/null || true)
  for config in "$@"; do
    if [ "$config" = --stats ]; then
      stats=1
      continue
    fi
    cmp "$dir/$base/$golden" "$dir/$config/$golden" || fail=1
    [ $stats = 1 ] || continue
    if [ -z "$base_stats" ]; then
      echo "compare: $base wrote no stats files" >&2
      fail=1
    fi
    for f in $base_stats; do
      cmp "$dir/$base/$f" "$dir/$config/$f" || fail=1
    done
  done
  [ $fail = 0 ] && echo "compare: every configuration matches $base"
  return $fail
}

view() {
  local dir=$1 primary=$2 csv=$3 keys=$4 f
  for f in "$primary" "$csv"; do
    if [ ! -s "$dir/$f" ]; then
      echo "view: $dir/$f is missing or empty" >&2
      return 1
    fi
  done
  keys_of() { sed 's/ ([^)]*)//g' "$1" | cut -d, -f1-"$keys"; }
  if ! diff <(keys_of "$dir/$primary") <(keys_of "$dir/$csv") >&2; then
    echo "view: the rows of $csv do not match those of $primary" >&2
    return 1
  fi
  echo "view: $csv has a row for each of the $(($(wc -l < "$dir/$primary") - 1)) rows of $primary"
}

self_test() {
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  reset() {  # base with a golden, two stats files and two views of one sweep;
             # cfg an identical copy
    rm -rf "$tmp/base" "$tmp/cfg"
    mkdir "$tmp/base"
    printf 'GOLDEN a=1\nGOLDEN b=2\n' > "$tmp/base/g.txt"
    printf '{"v": 1}\n' > "$tmp/base/s.x.stats.json"
    printf 'v 1\n' > "$tmp/base/s.x.stats.prom"
    printf 'size (GB),kind,time (s)\n0.5,idle,4.7\n1.0,busy,9.0\n' \
        > "$tmp/base/p.csv"
    printf 'size (GB),kind,bytes (MB)\n0.5,idle,524\n1.0,busy,980\n' \
        > "$tmp/base/v.csv"
    cp -r "$tmp/base" "$tmp/cfg"
  }
  expect() {  # expect pass|fail <case> -- <command>
    local want=$1 what=$2 got=pass
    shift 3
    "$@" > /dev/null 2>&1 || got=fail
    if [ "$got" != "$want" ]; then
      echo "self-test: FAIL '$what': $1 should $want" >&2
      exit 1
    fi
    echo "self-test: ok   '$what' -> $want"
  }
  same() { compare "$tmp" g.txt base --stats cfg; }
  rows() { view "$tmp/cfg" p.csv v.csv 2; }
  reset
  expect pass "identical copy" -- same
  reset
  printf 'GOLDEN a=1\nGOLDEN b=3\n' > "$tmp/cfg/g.txt"
  expect fail "one-byte change to the golden" -- same
  reset
  rm "$tmp/cfg/g.txt"
  expect fail "missing golden" -- same
  reset
  rm "$tmp"/cfg/s.*
  expect fail "stats-on configuration without stats files" -- same
  reset
  rm "$tmp"/base/s.* "$tmp"/cfg/s.*
  expect fail "stats-on base without stats files" -- same
  reset
  printf 'v 2\n' > "$tmp/cfg/s.x.stats.prom"
  expect fail "one-byte change to a stats file" -- same
  reset
  expect pass "view with a row per point" -- rows
  reset
  rm "$tmp/cfg/v.csv"
  expect fail "missing view" -- rows
  reset
  sed -i '$d' "$tmp/cfg/v.csv"
  expect fail "view missing a row" -- rows
  reset
  sed -i 's/^1.0,busy,/1.0,idle,/' "$tmp/cfg/v.csv"
  expect fail "view row with another key" -- rows
}

cmd=${1:-}
[ $# -gt 0 ] && shift
case "$cmd" in
  run) run "$@" ;;
  compare) compare "$@" ;;
  view) view "$@" ;;
  self-test) self_test ;;
  *)
    echo "usage: $0 run|compare|view|self-test ..." >&2
    exit 2
    ;;
esac

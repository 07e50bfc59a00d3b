#!/usr/bin/env bash
# Clang -Wthread-safety gate over the AGILE_* annotations
# (util/thread_annotations.hpp).
#
# Three passes, all -fsyntax-only (no tree is configured or built):
#   1. every TU under src/ must be thread-safety-clean with the diagnostics
#      promoted to errors;
#   2. tests/fixtures/thread_safety_clean.cpp must compile (positive control;
#      also instantiates the annotated header-only ThreadPool::submit);
#   3. tests/fixtures/thread_safety_violation.cpp must be REJECTED with a
#      thread-safety diagnostic (negative control: proves the analysis is
#      armed, not silently inert).
#
# Exit codes: 0 clean, 1 violation, 77 SKIP (no clang++ — GCC does not
# implement the analysis). ctest registers 77 as SKIP_RETURN_CODE, and
# tools/analyze.sh reports the leg as SKIP.
#
# Override the compiler with AGILE_CLANGXX=/path/to/clang++.

set -u
cd "$(dirname "$0")/.."

CLANG="${AGILE_CLANGXX:-}"
if [ -z "$CLANG" ]; then
  for cand in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
              clang++-17 clang++-16 clang++-15 clang++-14; do
    if command -v "$cand" >/dev/null 2>&1; then
      CLANG=$cand
      break
    fi
  done
fi
if [ -z "$CLANG" ]; then
  echo "SKIP: clang++ not found — -Wthread-safety analysis needs Clang" \
       "(the AGILE_* annotations compile to nothing under GCC)"
  exit 77
fi
echo "thread-safety: using $("$CLANG" --version | head -1)"

FLAGS=(-std=c++20 -fsyntax-only -Isrc
       -Wthread-safety -Wthread-safety-beta
       -Werror=thread-safety-analysis -Werror=thread-safety-attributes)

fail=0

# Pass 1: the whole src/ tree.
while IFS= read -r tu; do
  if ! "$CLANG" "${FLAGS[@]}" "$tu"; then
    echo "thread-safety: FAIL $tu"
    fail=1
  fi
done < <(find src -name '*.cpp' | sort)

# Pass 2: positive control (also analyzes the ThreadPool::submit template
# body via instantiation).
if ! "$CLANG" "${FLAGS[@]}" tests/fixtures/thread_safety_clean.cpp; then
  echo "thread-safety: FAIL tests/fixtures/thread_safety_clean.cpp"
  fail=1
fi

# Pass 3: negative control — must fail, and must fail for the right reason.
viol_out=$("$CLANG" "${FLAGS[@]}" tests/fixtures/thread_safety_violation.cpp 2>&1)
viol_rc=$?
if [ $viol_rc -eq 0 ]; then
  echo "thread-safety: ERROR — violation fixture compiled clean;" \
       "the analysis is not armed"
  fail=1
elif ! printf '%s' "$viol_out" | grep -q "thread-safety"; then
  echo "thread-safety: ERROR — violation fixture failed without a" \
       "thread-safety diagnostic:"
  printf '%s\n' "$viol_out"
  fail=1
fi

if [ $fail -eq 0 ]; then
  echo "thread-safety: clean (src/ TUs + both fixtures behaved)"
fi
exit $fail

#!/usr/bin/env bash
# Same-host A/B wall-clock check of the closed-loop UDP benchmark.
#
# Builds bench/perf/perf.exe twice, from BASE_REV's committed files and
# from this checkout, runs the whole benchmark (`perf.exe --json`) on
# each back to back with one seed, and judges the change against the
# base with `perf.exe compare` and BENCHMARK.json's bounds. Absolute
# wall-clock figures from a shared host cannot be compared with a
# committed baseline; two builds run on the same host minutes apart
# can.
#
# The exit status is compare's: 0 when no (metric, workload) pair has
# a `regress` verdict (a rise in failed_cast_ratio counts as one), 1
# when some pair regressed, 2 when a report could not be read.
# `unresolved` verdicts are printed but do not fail. Hosts with fewer
# than 2 domains report the cross-shard workload as skipped.
#
# Both reports and the compare table are left in perf-ab/ at the repo
# root: base.json, change.json, compare.txt.
#
# Usage: scripts/perf_ab.sh BASE_REV        (about 10 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE_REV" >&2
  exit 2
fi
BASE_REV="$1"
SEED=11
OUT=perf-ab

base_dir="$(mktemp -d)"
trap 'rm -rf "$base_dir"' EXIT
git archive "$BASE_REV" | tar -x -C "$base_dir"

echo "perf A/B: building base ($(git rev-parse --short "$BASE_REV")) and change"
(cd "$base_dir" && dune build --root . --display quiet ./bench/perf/perf.exe)
dune build --root . --display quiet ./bench/perf/perf.exe

mkdir -p "$OUT"
# A failed correctness check makes --json exit 1 after writing its
# report; compare then judges failed_cast_ratio, so go on to it.
echo "perf A/B: base run"
(cd "$base_dir" && ./_build/default/bench/perf/perf.exe --json report.json --seed "$SEED") \
  > "$OUT/base.log" || true
cp "$base_dir/report.json" "$OUT/base.json" || { echo "perf A/B: base wrote no report" >&2; exit 2; }
echo "perf A/B: change run"
./_build/default/bench/perf/perf.exe --json "$OUT/change.json" --seed "$SEED" \
  > "$OUT/change.log" || true

status=0
./_build/default/bench/perf/perf.exe compare "$OUT/base.json" "$OUT/change.json" \
  | tee "$OUT/compare.txt" || status=$?
exit "$status"

#!/usr/bin/env bash
# CI perf-regression gate.
#
# Re-runs the bench harness in --quick mode and compares the
# deterministic ("simulated") section of the snapshot against the
# committed baseline BENCH_horus.json. The snapshot holds no
# wall-clock values; those are bench/perf's, judged by its own
# compare against BENCHMARK.json's bounds. Numeric drift beyond the
# tolerance (default 15%, override with BENCH_GATE_TOLERANCE), or any
# structural change (key added/removed, type changed), fails the gate.
#
# Escape hatch: when a perf change is intended, put [bench-reset] in
# the commit message, regenerate the baseline with
#     dune exec bench/main.exe -- --json BENCH_horus.json --quick
# and commit it; the gate skips the comparison for that commit.
#
# A machine-readable comparison report is always written (default
# bench_gate_diff.json, override with BENCH_GATE_DIFF) so CI can
# upload it as an artifact.
#
# Usage: scripts/bench_gate.sh [baseline [candidate]]
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-BENCH_horus.json}"
CANDIDATE="${2:-_build/BENCH_candidate.json}"
TOLERANCE="${BENCH_GATE_TOLERANCE:-0.15}"
DIFF_OUT="${BENCH_GATE_DIFF:-bench_gate_diff.json}"

if git log -1 --format=%B 2>/dev/null | grep -q '\[bench-reset\]'; then
  echo "bench gate: [bench-reset] in the commit message — baseline reset, skipping"
  printf '{"skipped": "bench-reset"}\n' > "$DIFF_OUT"
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "bench gate: no baseline at $BASELINE" >&2
  exit 1
fi

echo "bench gate: regenerating candidate snapshot (--quick)"
dune exec bench/main.exe -- --json "$CANDIDATE" --quick > /dev/null

python3 - "$BASELINE" "$CANDIDATE" "$TOLERANCE" "$DIFF_OUT" <<'PYEOF'
import json, sys

baseline_path, candidate_path, tol_s, diff_out = sys.argv[1:5]
tol = float(tol_s)
base = json.load(open(baseline_path))["simulated"]
cand = json.load(open(candidate_path))["simulated"]

checked = 0
failures = []


def fail(path, b, c, dev=None):
    failures.append(
        {"path": path, "baseline": b, "candidate": c,
         **({"deviation": round(dev, 4)} if dev is not None else {})})


def walk(path, b, c):
    global checked
    if isinstance(b, dict) and isinstance(c, dict):
        for k in sorted(set(b) | set(c)):
            p = f"{path}.{k}" if path else k
            if k not in b:
                fail(p, None, c[k])
            elif k not in c:
                fail(p, b[k], None)
            else:
                walk(p, b[k], c[k])
    elif isinstance(b, list) and isinstance(c, list):
        if len(b) != len(c):
            fail(path + ".length", len(b), len(c))
        for i, (bb, cc) in enumerate(zip(b, c)):
            walk(f"{path}[{i}]", bb, cc)
    elif isinstance(b, bool) or isinstance(c, bool):
        checked += 1
        if b != c:
            fail(path, b, c)
    elif isinstance(b, (int, float)) and isinstance(c, (int, float)):
        checked += 1
        # Relative to the baseline, with a floor of 1.0 so near-zero
        # values do not trip on absolute noise.
        dev = abs(c - b) / max(abs(b), 1.0)
        if dev > tol:
            fail(path, b, c, dev)
    else:
        checked += 1
        if b != c:
            fail(path, b, c)


walk("", base, cand)

report = {
    "tolerance": tol,
    "values_checked": checked,
    "failures": failures,
}
json.dump(report, open(diff_out, "w"), indent=2)

if failures:
    print(f"bench gate: FAIL — {len(failures)} value(s) beyond {tol:.0%} "
          f"of {checked} checked (report: {diff_out})")
    for f in failures[:20]:
        dev = f" ({f['deviation']:.1%} off)" if "deviation" in f else ""
        print(f"  {f['path']}: baseline={f['baseline']} "
              f"candidate={f['candidate']}{dev}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")
    print("intended? regenerate the baseline and commit with [bench-reset]")
    sys.exit(1)

print(f"bench gate: OK — {checked} deterministic values within {tol:.0%}")
PYEOF

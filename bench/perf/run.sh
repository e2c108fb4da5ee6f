#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root, e.g.
#     bash bench/perf/run.sh --workload small --seed 1 --seconds 10 --trace 0
# Build output goes to stderr so that stdout ends with the result line.
set -euo pipefail
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"

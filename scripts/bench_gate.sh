#!/usr/bin/env bash
# Bench regression gate: run the engine microbenchmarks of bench_test.go
# five times each with `go test -bench`, then hold the gated benchmarks'
# medians to within 15% of the newest committed BENCH_<date>.txt baseline
# (see scripts/benchgate for the comparator).
#
# Run from the repository root:
#
#   ./scripts/bench_gate.sh
#
# BENCHTIME (default 1s) trades gate latency against measurement noise;
# BENCHGATE_FLAGS passes extra flags (e.g. -max-regress 0.25 or
# -gate SomeBench) through to the comparator; BENCHGATE_REPORT, if set,
# receives a copy of the comparison table (for CI artifacts).
set -euo pipefail
cd "$(dirname "$0")/.."

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

# Every root benchmark except the BenchmarkE<n> experiment runs: the set
# make bench-baseline records.
go test -run '^$' -bench '^Benchmark([^E]|E[^0-9])' -benchtime "${BENCHTIME:-1s}" -count 5 . | tee "$fresh" >&2
if [ -n "${BENCHGATE_REPORT:-}" ]; then
    go run ./scripts/benchgate -fresh "$fresh" ${BENCHGATE_FLAGS:-} 2>&1 | tee "$BENCHGATE_REPORT"
    exit "${PIPESTATUS[0]}"
fi
go run ./scripts/benchgate -fresh "$fresh" ${BENCHGATE_FLAGS:-}

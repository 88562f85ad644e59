#!/usr/bin/env bash
# Bench regression gate: build the engine microbenchmarks of
# bench_test.go at the base commit and at the checkout, run the two test
# binaries interleaved on this host (base, head, base, head, ...) for five
# samples each, then hold every gated benchmark's head median to within
# 15% of its base median (see scripts/benchgate for the comparator).
#
# The base is the merge-base with origin/main, or HEAD^1 when that is
# HEAD itself (a push to main, or a clone without origin/main); the
# CI bench job checks out the full history so the base is there. The
# head side is the checkout as it stands, uncommitted edits included.
#
# A gated benchmark measured too noisily to tell (its change's 95%
# confidence half-width, estimated from the samples' interquartile
# ranges, exceeds 15%) is measured again, five more interleaved samples
# per side, at most three times; if it is still that noisy the gate
# fails and names it. The gate never passes on a noisy measurement.
#
# Run from the repository root:
#
#   ./scripts/bench_gate.sh
#
# BENCHTIME (default 1s) trades gate latency against measurement noise;
# BENCHGATE_FLAGS passes extra flags (e.g. -max-regress 0.25 or
# -gate SomeBench) through to the comparator; BENCHGATE_REPORT, if set,
# receives a copy of the final comparison table (for CI artifacts).
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

head=$(git rev-parse HEAD)
base=$(git merge-base HEAD origin/main 2>/dev/null || true)
if [ -z "$base" ] || [ "$base" = "$head" ]; then
	base=$(git rev-parse HEAD^1)
fi
echo "benchgate: base $base, head $head (checkout)" >&2

mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .
go build -o "$work/benchgate" ./scripts/benchgate

# sample BENCH-REGEX appends five interleaved samples per side.
sample() {
	for _ in 1 2 3 4 5; do
		for side in base head; do
			"$work/$side.test" -test.run '^$' -test.bench "$1" -test.timeout 10m \
				-test.benchtime "${BENCHTIME:-1s}" | tee -a "$work/$side.txt" >&2
		done
	done
}

# Every root benchmark except the BenchmarkE<n> experiment runs: the set
# make bench-baseline records.
sample '^Benchmark([^E]|E[^0-9])'
for rerun in 0 1 2 3; do
	status=0
	# shellcheck disable=SC2086 # BENCHGATE_FLAGS is a flag list
	"$work/benchgate" -baseline "$work/base.txt" -fresh "$work/head.txt" \
		${BENCHGATE_FLAGS:-} > "$work/report.txt" || status=$?
	noisy=$(sed -n 's/^benchgate: noisy: //p' "$work/report.txt")
	if [ "$status" -ne 2 ] || [ "$rerun" -eq 3 ]; then
		break
	fi
	echo "benchgate: measuring noisy rows again: $noisy" >&2
	sample "^Benchmark(${noisy//,/|})\$"
done
cat "$work/report.txt"
if [ -n "${BENCHGATE_REPORT:-}" ]; then
	cp "$work/report.txt" "$BENCHGATE_REPORT"
fi
if [ "$status" -eq 2 ]; then
	echo "benchgate: FAIL — still noisy after three re-measurements: $noisy" >&2
fi
exit "$status"

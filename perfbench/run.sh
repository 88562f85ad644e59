#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload grid-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build, its cache, the stores'
# temporary directories and the trace files all stay under .perfbench/
# in the checkout; no network access is attempted.
set -euo pipefail
out="$PWD/.perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

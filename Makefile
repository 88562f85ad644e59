# Development entry points. CI runs the same commands (see
# .github/workflows/ci.yml); bench-baseline records the performance
# trajectory of the hot paths as a BENCH_<date>.txt file in-tree.

GO ?= go

# The engine microbenchmarks: every benchmark in bench_test.go except
# the BenchmarkE<n> experiment runs (scripts/bench_gate.sh runs the same
# set).
MICROBENCH = ^Benchmark([^E]|E[^0-9])

.PHONY: build test race bench bench-smoke bench-baseline bench-gate profile profile-server fmt vet cover fuzz e2e docs-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep (experiments + engine microbenchmarks).
bench:
	$(GO) test -bench=. -benchtime=2s -run '^$$' ./...

# One iteration per benchmark: a fast compile-and-smoke gate for CI.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Record the engine-microbenchmark baseline as BENCH_<date>.txt: five
# samples per benchmark in standard `go test -bench` output.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(MICROBENCH)' -count 5 . > BENCH_$$(date -u +%Y-%m-%d).txt

# Regression gate: build the microbenchmarks at the base commit (the
# merge-base with origin/main, or HEAD^1) and at the checkout, run them
# interleaved, and hold the gated medians (CobraStepExpander,
# GraphResolveWarm, GraphBuildRegular) to within 15% of the base's. CI
# runs this; BENCHTIME=2s tightens the measurement locally.
bench-gate:
	./scripts/bench_gate.sh

# Profile the engine microbenchmarks: cpu.pprof + mem.pprof for
# `go tool pprof`, keeping the remaining per-round kernel cost
# attributable.
profile:
	$(GO) test -run '^$$' -bench '$(MICROBENCH)' -benchtime 500ms \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof — inspect with: go tool pprof repro.test cpu.pprof"

# Profile a live daemon: cobrad with the pprof side listener up, ready
# for `go tool pprof http://127.0.0.1:6060/debug/pprof/profile`.
profile-server:
	$(GO) run ./cmd/cobrad -pprof

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Coverage over the durability core — the engine scheduler, the result
# and graph stores, the cluster protocol (arbiter, /v1/cluster/* RPCs,
# fault injection) and retry/backoff — gated at 80%.
COVER_PKGS = ./internal/engine/ ./internal/store/ ./internal/graphstore/ ./internal/cluster/... ./internal/retry/

cover:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	./scripts/coverage_gate.sh coverage.out 80

# Fuzz every decoder that reads disk bytes — graph artifacts, result
# records, and the cluster arbiter's state and journal — and the
# client's SSE reader, which reads network bytes, for 15s each. The
# seed corpora also run under plain go test.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime 15s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 15s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJournal$$' -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzReadEvents$$' -fuzztime 15s ./client/

# End-to-end smoke: a coordinator and -cluster-url runners, sweeps
# drained through leased claims, runners killed mid-sweep, a second
# coordinator on the data dir refused, restart with zero trials re-run.
e2e:
	./scripts/e2e_smoke.sh

# Docs lint: API routes, error codes, and registered processes must be
# documented (docs/API.md, README process table).
docs-check:
	./scripts/docs_check.sh

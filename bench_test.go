package repro

// One benchmark per reproduction experiment (E1-E20, the registry in
// internal/experiments), so `go test -bench=.` regenerates every paper-validation measurement at
// quick scale, plus engine microbenchmarks for the hot paths. Key
// derived quantities (scaling exponents, bound ratios) are attached via
// b.ReportMetric, so the benchmark log doubles as a results record.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graphstore"
)

// benchExperiment runs one registry experiment per iteration and reports
// its headline numeric finding when one can be extracted.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(experiments.Quick, uint64(1000+i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		if v, ok := firstNumber(last.Findings); ok {
			b.ReportMetric(v, "headline")
		}
	}
}

// firstNumber extracts the first floating-point number appearing in the
// findings, the experiment's headline quantity (an exponent or ratio).
func firstNumber(findings []string) (float64, bool) {
	for _, f := range findings {
		for _, tok := range strings.FieldsFunc(f, func(r rune) bool {
			return !(r == '.' || r == '-' || (r >= '0' && r <= '9'))
		}) {
			if v, err := strconv.ParseFloat(tok, 64); err == nil && tok != "-" && strings.Contains(tok, ".") {
				return v, true
			}
		}
	}
	return 0, false
}

func BenchmarkE1GridCover(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2GridDrift(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3QueueDrift(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4Conductance(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5Expander(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6WaltDominance(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7TensorCollision(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8RegularHitting(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9Lollipop(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10BiasedWalk(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11Dominance(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Trees(b *testing.B)          { benchExperiment(b, "E12") }
func BenchmarkE13Star(b *testing.B)           { benchExperiment(b, "E13") }
func BenchmarkE14Matthews(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15BranchingK(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16Baselines(b *testing.B)      { benchExperiment(b, "E16") }
func BenchmarkE17BranchingVar(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18Trajectories(b *testing.B)   { benchExperiment(b, "E18") }
func BenchmarkE19RapidCoverage(b *testing.B)  { benchExperiment(b, "E19") }
func BenchmarkE20FaultTolerance(b *testing.B) { benchExperiment(b, "E20") }

// --- engine microbenchmarks -------------------------------------------------
//
// Every benchmark below is in the regression gate's set: make
// bench-baseline records their `go test -bench` output as a
// BENCH_<date>.txt baseline, and scripts/bench_gate.sh holds fresh runs
// to it.

// BenchmarkCobraStepExpander measures one cobra round at steady state on
// a 10k-vertex expander: the per-round cost Theorem 8's wall-clock
// depends on.
func BenchmarkCobraStepExpander(b *testing.B) {
	g, err := RandomRegular(10000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := NewCobraWalk(g, CobraConfig{K: 2}, NewRand(1))
	w.Reset(0)
	for i := 0; i < 60; i++ {
		w.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
	b.ReportMetric(float64(w.ActiveCount()), "active")
}

// BenchmarkCobraStepExpanderSparse is BenchmarkCobraStepExpander with
// the dense kernel disabled: it pins the seed-stable sparse path so a
// regression in either half of the dual-mode engine is visible even
// when the adaptive switch would mask it.
func BenchmarkCobraStepExpanderSparse(b *testing.B) {
	g, err := RandomRegular(10000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := NewCobraWalk(g, CobraConfig{K: 2, DenseTheta: -1}, NewRand(1))
	w.Reset(0)
	for i := 0; i < 60; i++ {
		w.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
	b.ReportMetric(float64(w.ActiveCount()), "active")
}

// BenchmarkCobraStepPowerLaw measures one cobra round at steady state
// on a 10k-vertex power-law graph with the default irregular sampler
// (per-vertex offset + fixed-point multiply): irregular degrees take
// the same O(1)-per-draw dense path as regular graphs.
func BenchmarkCobraStepPowerLaw(b *testing.B) {
	g := PowerLaw(10000, 2.5, 2, 40, 7)
	w := NewCobraWalk(g, CobraConfig{K: 2}, NewRand(1))
	w.Reset(0)
	for i := 0; i < 60; i++ {
		w.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
	b.ReportMetric(float64(w.ActiveCount()), "active")
}

// BenchmarkCobraStepPowerLawSparse is BenchmarkCobraStepPowerLaw pinned
// to the sparse list kernel — the pre-dense, per-vertex modulo path
// irregular graphs used to take. The dense sampler is measured against
// this.
func BenchmarkCobraStepPowerLawSparse(b *testing.B) {
	g := PowerLaw(10000, 2.5, 2, 40, 7)
	w := NewCobraWalk(g, CobraConfig{K: 2, DenseTheta: -1}, NewRand(1))
	w.Reset(0)
	for i := 0; i < 60; i++ {
		w.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
	b.ReportMetric(float64(w.ActiveCount()), "active")
}

// BenchmarkCobraCoverGrid measures a full cover run on the paper's
// [0,32]² grid.
func BenchmarkCobraCoverGrid(b *testing.B) {
	g := Grid(2, 33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewCobraWalk(g, CobraConfig{K: 2}, NewTrialRand(1, i))
		w.Reset(0)
		if _, ok := w.RunUntilCovered(); !ok {
			b.Fatal("cover failed")
		}
	}
}

// BenchmarkCobraCoverExpander measures a full cover run on the
// 10k-vertex expander, the wall-clock form of Theorem 8's bound.
func BenchmarkCobraCoverExpander(b *testing.B) {
	g, err := RandomRegular(10000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewCobraWalk(g, CobraConfig{K: 2}, NewTrialRand(3, i))
		w.Reset(0)
		if _, ok := w.RunUntilCovered(); !ok {
			b.Fatal("cover failed")
		}
	}
}

// BenchmarkWaltStep measures one Walt round with n/2 pebbles on an
// expander, the Theorem 8 proof configuration, with the default kernel
// switch (the count-based dense kernel runs above the cutoff).
func BenchmarkWaltStep(b *testing.B) {
	g, err := RandomRegular(10000, 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	p := NewWaltAtVertex(g, 5000, 0, WaltConfig{Lazy: true}, NewRand(1))
	for i := 0; i < 60; i++ {
		p.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkWaltStepSparse is BenchmarkWaltStep pinned to the sparse
// per-pebble kernel (DenseTheta < 0). The two form a matched pair at the
// Theorem 8 configuration: same graph, pebbles, laziness and seed, so
// their ratio is what the dense kernel earns.
func BenchmarkWaltStepSparse(b *testing.B) {
	g, err := RandomRegular(10000, 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	p := NewWaltAtVertex(g, 5000, 0, WaltConfig{Lazy: true, DenseTheta: -1}, NewRand(1))
	for i := 0; i < 60; i++ {
		p.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkGraphBuildRegular measures random 5-regular construction
// (configuration model + repair), the dominant setup cost of expander
// sweeps.
func BenchmarkGraphBuildRegular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(10000, 5, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectralAnalyze measures conductance estimation on a
// 1000-vertex expander (power iteration + sweep cut).
func BenchmarkSpectralAnalyze(b *testing.B) {
	g, err := RandomRegular(1000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeSpectrum(g)
	}
}

// BenchmarkJointWalk measures the Lemma 11 two-pebble walk step.
func BenchmarkJointWalk(b *testing.B) {
	g, err := RandomRegular(10000, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	j := NewJointWalk(g, 0, 5000, true, NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Step()
	}
}

// BenchmarkGraphResolveCold measures a graph artifact store miss: every
// iteration opens a fresh memory-only store, so each resolve pays the
// full regular:4096,5 configuration-model build.
func BenchmarkGraphResolveCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gs, err := graphstore.Open(graphstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		g, err := gs.Resolve("regular:4096,5", 1)
		if err != nil {
			b.Fatal(err)
		}
		gs.Release(g)
	}
}

// BenchmarkGraphResolveWarm measures the steady-state hit path of the
// graph artifact store: the graph is resident, so a resolve is a
// registry lookup on (spec, seed) plus a refcount, with no hash and no
// allocation. The cold/warm ratio is the store's reason to exist.
func BenchmarkGraphResolveWarm(b *testing.B) {
	gs, err := graphstore.Open(graphstore.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	g, err := gs.Resolve("regular:4096,5", 1)
	if err != nil {
		b.Fatal(err)
	}
	gs.Release(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gs.Resolve("regular:4096,5", 1)
		if err != nil {
			b.Fatal(err)
		}
		gs.Release(g)
	}
}

// BenchmarkGossipPush measures full push-gossip completion on an
// expander, the E16 baseline.
func BenchmarkGossipPush(b *testing.B) {
	g, err := RandomRegular(4096, 5, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewGossip(g, Push, 0, NewTrialRand(2, i))
		if _, ok := p.CompletionTime(1000000); !ok {
			b.Fatal("gossip failed")
		}
	}
}

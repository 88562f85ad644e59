package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// sparseCfg pins a walk to the sparse kernel: the seed-stable contract.
func sparseCfg(k int) Config { return Config{K: k, DenseTheta: -1} }

// denseCfg forces the dense kernel on every round (θ >= n).
func denseCfg(k int, n int) Config { return Config{K: k, DenseTheta: n} }

// TestSparseKernelGolden pins the sparse kernel's draw sequence to the
// pre-dual-kernel engine: these values were produced by the original
// implementation (which had no dense mode) and must never change for a
// fixed seed. If this test fails, the sparse path's randomness
// consumption order changed — a breaking change to the repository's
// determinism contract.
func TestSparseKernelGolden(t *testing.T) {
	gGrid := graph.Grid(2, 17)
	gExp := graph.MustRandomRegular(500, 5, 42)
	golden := []struct {
		seed       uint64
		grid, expd int
	}{
		{1, 47, 18},
		{2, 51, 15},
		{3, 51, 16},
	}
	for _, gc := range golden {
		w := New(gGrid, sparseCfg(2), rng.New(gc.seed))
		w.Reset(0)
		if steps, ok := w.RunUntilCovered(); !ok || steps != gc.grid {
			t.Fatalf("seed %d: grid cover %d (ok=%v), golden %d", gc.seed, steps, ok, gc.grid)
		}
		w = New(gExp, sparseCfg(2), rng.New(gc.seed))
		w.Reset(0)
		if steps, ok := w.RunUntilCovered(); !ok || steps != gc.expd {
			t.Fatalf("seed %d: expander cover %d (ok=%v), golden %d", gc.seed, steps, ok, gc.expd)
		}
	}
	// Per-round active-set trajectory fingerprint (FNV-1a over sizes).
	w := New(gExp, sparseCfg(2), rng.New(7))
	w.SetRecording(true)
	w.Reset(0)
	for i := 0; i < 40; i++ {
		w.Step()
	}
	var h uint64 = 1469598103934665603
	for _, a := range w.ActiveLog() {
		h ^= uint64(a)
		h *= 1099511628211
	}
	if h != 0xf19bec749bde946a {
		t.Fatalf("sparse active-log fingerprint %#x, golden 0xf19bec749bde946a", h)
	}
	if w.CoveredCount() != 500 {
		t.Fatalf("covered %d after 40 rounds, golden 500", w.CoveredCount())
	}
	// Other branching factors and an odd-degree-2 family.
	w = New(graph.Cycle(200), sparseCfg(3), rng.New(11))
	w.Reset(5)
	if steps, ok := w.RunUntilCovered(); !ok || steps != 130 {
		t.Fatalf("cycle K=3 cover %d, golden 130", steps)
	}
	w = New(graph.Path(60), sparseCfg(1), rng.New(13))
	w.Reset(0)
	if steps, ok := w.RunUntilCovered(); !ok || steps != 1217 {
		t.Fatalf("path K=1 cover %d, golden 1217", steps)
	}
}

// TestSparseKernelDrawSequenceUnchanged verifies at the Source level
// that a sparse round consumes exactly one Int31n(deg) per sample, in
// frontier order — the draw sequence of the seed implementation.
func TestSparseKernelDrawSequenceUnchanged(t *testing.T) {
	g := graph.Cycle(64)
	w := New(g, sparseCfg(2), rng.New(99))
	w.Reset(0)
	// Replay the expected draws with an identical source.
	ref := rng.New(99)
	expect := []int32{0}
	for round := 0; round < 6; round++ {
		frontier := append([]int32(nil), w.active...)
		if len(frontier) != len(expect) {
			t.Fatalf("round %d: frontier %v, replay %v", round, frontier, expect)
		}
		seen := make(map[int32]bool)
		var next []int32
		for _, v := range frontier {
			for j := 0; j < 2; j++ {
				u := g.Neighbor(v, ref.Int31n(g.Degree(v)))
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		w.Step()
		expect = next
		got := append([]int32(nil), w.active...)
		if len(got) != len(expect) {
			t.Fatalf("round %d: active %v, replay %v", round+1, got, expect)
		}
		for i := range got {
			if got[i] != expect[i] {
				t.Fatalf("round %d: active %v, replay %v", round+1, got, expect)
			}
		}
	}
}

// TestDenseKernelSemantics checks the invariants the dense kernel must
// share with the sparse one: active sets are distinct covered neighbors
// of the previous frontier, counts stay consistent, and message
// accounting matches.
func TestDenseKernelSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"regular-odd-degree", graph.MustRandomRegular(300, 5, 3), 2},
		{"regular-pow2-degree", graph.Torus(2, 16), 2}, // 4-regular
		{"irregular", graph.Grid(2, 15), 2},
		{"k3", graph.MustRandomRegular(200, 4, 4), 3},
		{"k1", graph.Cycle(100), 1},
	} {
		w := New(tc.g, denseCfg(tc.k, tc.g.N()), rng.New(21))
		w.Reset(0)
		prev := []int32{0}
		var wantMsgs int64
		for round := 0; round < 25; round++ {
			wantMsgs += int64(tc.k) * int64(len(prev))
			w.Step()
			cur := w.AppendActive(nil)
			if len(cur) == 0 {
				t.Fatalf("%s: empty frontier at round %d", tc.name, round)
			}
			seen := make(map[int32]bool)
			for _, v := range cur {
				if seen[v] {
					t.Fatalf("%s: duplicate %d in dense frontier", tc.name, v)
				}
				seen[v] = true
				if !w.Covered(v) {
					t.Fatalf("%s: active vertex %d not covered", tc.name, v)
				}
				ok := false
				for _, p := range prev {
					if tc.g.HasEdge(p, v) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("%s: active vertex %d not adjacent to previous frontier", tc.name, v)
				}
			}
			if len(cur) > tc.k*len(prev) {
				t.Fatalf("%s: frontier grew %d -> %d with k=%d", tc.name, len(prev), len(cur), tc.k)
			}
			prev = cur
		}
		if w.MessagesSent() != wantMsgs {
			t.Fatalf("%s: messages %d, want %d", tc.name, w.MessagesSent(), wantMsgs)
		}
		if got := w.CoveredCount(); got != countCovered(w, tc.g.N()) {
			t.Fatalf("%s: CoveredCount %d inconsistent with bitset %d", tc.name, got, countCovered(w, tc.g.N()))
		}
	}
}

func countCovered(w *Walk, n int) int {
	c := 0
	for v := 0; v < n; v++ {
		if w.Covered(int32(v)) {
			c++
		}
	}
	return c
}

// TestDenseSparseDistributionEquivalence is the satellite acceptance
// test: the two kernels consume randomness in different orders, so they
// cannot be compared draw for draw, but their cover-time distributions
// must agree. Means over >= 200 trials must be within 3 standard errors
// (of the pooled difference) on both a grid and an expander.
func TestDenseSparseDistributionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution test needs 400 trials per graph")
	}
	const trials = 250
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(2, 17)},
		{"expander", graph.MustRandomRegular(400, 5, 9)},
	} {
		run := func(cfg Config, offset uint64) []float64 {
			out := make([]float64, trials)
			w := New(tc.g, cfg, rng.New(0))
			for i := 0; i < trials; i++ {
				w.rnd.Seed(rng.Stream(offset, i))
				w.Reset(0)
				steps, ok := w.RunUntilCovered()
				if !ok {
					t.Fatalf("%s: cover cap exceeded", tc.name)
				}
				out[i] = float64(steps)
			}
			return out
		}
		sparse := run(sparseCfg(2), 1001)
		dense := run(denseCfg(2, tc.g.N()), 2002)
		ms, md := stats.Mean(sparse), stats.Mean(dense)
		ses := stats.Summarize(sparse).Std / math.Sqrt(trials)
		sed := stats.Summarize(dense).Std / math.Sqrt(trials)
		se := math.Sqrt(ses*ses + sed*sed)
		if diff := math.Abs(ms - md); diff > 3*se {
			t.Fatalf("%s: sparse mean %.2f vs dense mean %.2f differ by %.2f > 3se (%.2f)",
				tc.name, ms, md, diff, 3*se)
		}
	}
}

// TestAliasKernelDistributionEquivalence checks irregular dense
// sampling: on irregular graphs (power-law and grid) the dense kernel's
// offset/multiply sampler and the sparse kernel must draw cover times
// from the same distribution. Means over the trial set must agree within
// 3 standard errors.
func TestAliasKernelDistributionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution test needs many trials")
	}
	const trials = 250
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", graph.PowerLaw(400, 2.5, 2, 40, 13)},
		{"grid", graph.Grid(2, 17)},
	} {
		run := func(cfg Config, offset uint64) []float64 {
			out := make([]float64, trials)
			w := New(tc.g, cfg, rng.New(0))
			for i := 0; i < trials; i++ {
				w.rnd.Seed(rng.Stream(offset, i))
				w.Reset(0)
				steps, ok := w.RunUntilCovered()
				if !ok {
					t.Fatalf("%s: cover cap exceeded", tc.name)
				}
				out[i] = float64(steps)
			}
			return out
		}
		multiply := run(Config{K: 2, DenseTheta: tc.g.N()}, 3001)
		sparse := run(sparseCfg(2), 3003)
		mm, ms := stats.Mean(multiply), stats.Mean(sparse)
		sem := stats.Summarize(multiply).Std / math.Sqrt(trials)
		ses := stats.Summarize(sparse).Std / math.Sqrt(trials)
		se := math.Sqrt(sem*sem + ses*ses)
		if diff := math.Abs(mm - ms); diff > 3*se {
			t.Fatalf("%s: multiply mean %.2f vs sparse mean %.2f differ by %.2f > 3se (%.2f)",
				tc.name, mm, ms, diff, 3*se)
		}
	}
}

// TestFrontierGolden pins the default walk round by round: an FNV-1a
// digest over every round's sorted frontier and covered count, for 60
// rounds on a regular and an irregular graph. The goldens were recorded
// when the walk could also materialize the frontier list after every
// dense round; that mode and the bitset-resident default produced the
// same digests.
func TestFrontierGolden(t *testing.T) {
	for _, tc := range []struct {
		g      *graph.Graph
		golden uint64
	}{
		{graph.MustRandomRegular(300, 5, 3), 0x6c9749570bb2e043},
		{graph.PowerLaw(300, 2.5, 2, 40, 13), 0xb0a4841afcc088f3},
	} {
		w := New(tc.g, Config{K: 2}, rng.New(42))
		w.Reset(0)
		var h uint64 = 1469598103934665603
		mix := func(x uint64) { h ^= x; h *= 1099511628211 }
		for round := 0; round < 60; round++ {
			w.Step()
			f := w.AppendActive(nil)
			sort.Slice(f, func(i, j int) bool { return f[i] < f[j] })
			mix(uint64(len(f)))
			for _, v := range f {
				mix(uint64(v))
			}
			mix(uint64(w.CoveredCount()))
		}
		if h != tc.golden {
			t.Errorf("%s: frontier digest %#x, golden %#x", tc.g, h, tc.golden)
		}
	}
}

// TestAutoKernelMatchesForcedDistributions sanity-checks the adaptive
// threshold: a default-config walk (mixing kernels per round) completes
// and covers, and its cover times sit between plausibility bounds set
// by the forced-kernel runs.
func TestAutoKernelSwitches(t *testing.T) {
	g := graph.MustRandomRegular(400, 5, 9)
	w := New(g, Config{K: 2}, rng.New(3))
	w.SetRecording(true)
	w.Reset(0)
	steps, ok := w.RunUntilCovered()
	if !ok {
		t.Fatal("auto-kernel walk did not cover")
	}
	// The walk must actually have used both regimes: some rounds at or
	// below the cutoff, some above.
	cut := DenseCutoff(g.N(), 0)
	below, above := 0, 0
	for _, a := range w.ActiveLog() {
		if a > cut {
			above++
		} else {
			below++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("adaptive run (%d steps) never switched kernels: %d sparse rounds, %d dense rounds",
			steps, below, above)
	}
}

// TestDenseCutoff pins the θ semantics documented on Config.DenseTheta.
func TestDenseCutoff(t *testing.T) {
	if got := DenseCutoff(800, 0); got != 100 {
		t.Fatalf("default cutoff for n=800: %d, want 100", got)
	}
	if got := DenseCutoff(800, 4); got != 200 {
		t.Fatalf("theta=4 cutoff for n=800: %d, want 200", got)
	}
	if got := DenseCutoff(800, -1); got != math.MaxInt {
		t.Fatalf("negative theta must disable dense kernel, got %d", got)
	}
	if got := DenseCutoff(800, 800); got != 0 {
		t.Fatalf("theta >= n must force dense on every round (cutoff 0), got %d", got)
	}
	if got := DenseCutoff(800, 4000); got != 0 {
		t.Fatalf("theta > n must force dense on every round (cutoff 0), got %d", got)
	}
}

// TestSetRandReproducesFreshWalk verifies the pooled-reuse contract:
// SetRand + Reset on a used Walk gives byte-identical results to a
// freshly constructed Walk with the same source, in both kernel modes.
func TestSetRandReproducesFreshWalk(t *testing.T) {
	g := graph.MustRandomRegular(300, 5, 6)
	for _, cfg := range []Config{sparseCfg(2), denseCfg(2, g.N()), {K: 2}} {
		pooled := New(g, cfg, rng.New(0))
		for trial := 0; trial < 5; trial++ {
			fresh := New(g, cfg, rng.NewStream(77, trial))
			fresh.Reset(0)
			fs, fok := fresh.RunUntilCovered()

			pooled.rnd.Seed(rng.Stream(77, trial))
			pooled.Reset(0)
			ps, pok := pooled.RunUntilCovered()
			if fs != ps || fok != pok {
				t.Fatalf("cfg %+v trial %d: fresh %d/%v vs pooled %d/%v",
					cfg, trial, fs, fok, ps, pok)
			}
		}
	}
}

// TestChunkSamplersWidthAgnostic checks that the regular chunk samplers
// mark the same vertices whichever padded table they gather from: the
// uint16 table is the int32 one narrowed, and the draw consumption does
// not depend on the element width.
func TestChunkSamplersWidthAgnostic(t *testing.T) {
	for _, g := range []*graph.Graph{graph.MustRandomRegular(1000, 4, 5), graph.MustRandomRegular(1000, 5, 5)} {
		chunk := make([]int32, 0, g.N())
		for v := int32(0); v < int32(g.N()); v += 3 {
			chunk = append(chunk, v)
		}
		var draws []uint64
		d := ensureDraws(&draws, (len(chunk)+1)/2)
		rng.NewBlock(rng.New(11)).Fill(d[:(len(chunk)+1)/2])
		wide, narrow := AllocMark(g.N()), AllocMark(g.N())
		_, deg := g.IsRegular()
		if g.DegreeIsPow2() {
			samplePow2K2(g.AdjPow2(), deg, wide, chunk, d)
			samplePow2K2(g.AdjPow2Narrow(), deg, narrow, chunk, d)
		} else {
			sampleRegularK2(g.AdjPow2(), deg, wide, chunk, d)
			sampleRegularK2(g.AdjPow2Narrow(), deg, narrow, chunk, d)
		}
		if string(wide) != string(narrow) {
			t.Errorf("%s: the uint16 table marks different vertices than the int32 table", g)
		}
	}
}

// TestDenseKernelBuildsOnePaddedTable pins the dense kernels' memory:
// a graph whose vertex ids fit in 16 bits gets only the uint16 padded
// table, and a wider one only the int32 table.
func TestDenseKernelBuildsOnePaddedTable(t *testing.T) {
	for _, tc := range []struct {
		n, d   int
		narrow bool
	}{
		{4096, 4, true},
		{4096, 5, true},
		{1<<16 + 4, 4, false},
	} {
		g := graph.MustRandomRegular(tc.n, tc.d, 1)
		csr := g.Bytes()
		w := New(g, denseCfg(2, g.N()), rng.New(1))
		w.Reset(0)
		for i := 0; i < 8; i++ { // list-driven first round, then bitset-driven rounds
			w.Step()
		}
		got := g.Bytes() - csr
		var padded int64 // read after got: AdjPow2 builds the table it sizes
		if tc.narrow {
			padded = 2 * int64(len(g.AdjPow2Narrow()))
		} else {
			padded = 4 * int64(len(g.AdjPow2()))
		}
		if got != padded {
			t.Errorf("n=%d d=%d: dense rounds built %d padded bytes, want one table of %d", tc.n, tc.d, got, padded)
		}
	}
}

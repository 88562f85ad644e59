package process

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// tracedGolden is one pinned traced run: an FNV-1a digest over every
// retained frame's fields except DurNanos (wall-clock metadata), the
// retained frame count, and the final next cursor.
type tracedGolden struct {
	name   string
	proc   string
	g      *graph.Graph
	params Params
	seed   uint64
	frames int
	next   uint64
	digest uint64
}

// tracedGoldens are the runs TestTracedSeriesGolden pins. Each run has
// one trial, so exactly trial 0 is traced and the frames are
// deterministic. The values were recorded before the series stored
// frames by value; the cycle case runs past the default 512-frame
// capacity and pins which frames survive the wrap.
func tracedGoldens() []tracedGolden {
	regular := graph.MustRandomRegular(600, 5, 2)
	return []tracedGolden{
		{"cobra-k2-pow2-regular", "cobra", graph.MustRandomRegular(1024, 4, 3), Params{"k": 2.0}, 5, 21, 21, 0x85b1666426da8ca1},
		{"cobra-k2-grid", "cobra", graph.Grid(2, 32), Params{"k": 2.0}, 6, 74, 74, 0x5c986765768d0b5b},
		{"general-bernoulli", "general", graph.MustRandomRegular(1000, 5, 1),
			Params{"k": 1.0, "k2": 3.0, "branching": "bernoulli", "p": 0.4}, 7, 25, 25, 0xd44ceb39b73fda80},
		{"sis-ideal", "sis", regular, Params{"k": 2.0}, 8, 18, 18, 0xf68c7f821d3c4623},
		{"sis-beta", "sis", regular, Params{"k": 2.0, "beta": 0.7, "max_steps": 400.0}, 9, 41, 41, 0xa27f3381971199a6},
		{"push", "push", regular, Params{}, 10, 21, 21, 0x1c4ef6698bf30dd4},
		{"walt", "walt", graph.Grid(2, 12), Params{"pebbles": 8.0}, 11, 512, 615, 0xd3c6d7ed8ad37ae7},
		{"cobra-k1-cycle-wraps", "cobra", graph.Cycle(64), Params{"k": 1.0}, 12, 512, 1825, 0x2a675af64f42b5e6},
	}
}

// traceRun runs proc with a tracer into a default-capacity series.
func traceRun(t *testing.T, proc string, run Run) *obs.Series {
	t.Helper()
	p, ok := Get(proc)
	if !ok {
		t.Fatalf("process %q not registered", proc)
	}
	series := obs.NewSeries(0)
	run.Observer = obs.NewTracer(series)
	if _, err := p.Run(context.Background(), run); err != nil {
		t.Fatalf("%s on %v: %v", proc, run.Graph, err)
	}
	return series
}

// checkGolden compares the series' retained frames with tc's pins.
func checkGolden(t *testing.T, label string, tc tracedGolden, series *obs.Series) {
	t.Helper()
	frames, next := series.Snapshot()
	var h uint64 = 1469598103934665603
	mix := func(x uint64) { h ^= x; h *= 1099511628211 }
	for _, f := range frames {
		mix(uint64(f.Trial))
		mix(uint64(f.Round))
		mix(uint64(f.Covered))
		mix(math.Float64bits(f.Coverage))
		mix(uint64(f.Frontier))
		mix(uint64(f.MinPos))
		mix(uint64(f.MaxPos))
	}
	if len(frames) != tc.frames || next != tc.next || h != tc.digest {
		t.Errorf("%s%s: %d frames, next %d, digest %#x; golden %d, %d, %#x",
			tc.name, label, len(frames), next, h, tc.frames, tc.next, tc.digest)
	}
}

// TestTracedSeriesGolden pins what a traced run leaves in a job's
// series (see tracedGoldens).
func TestTracedSeriesGolden(t *testing.T) {
	for _, tc := range tracedGoldens() {
		series := traceRun(t, tc.proc, Run{Graph: tc.g, Params: tc.params, Trials: 1, Seed: tc.seed})
		checkGolden(t, "", tc, series)
	}
}

// TestSealedSeriesGolden pins that sealing, as the engine does when a
// job finishes, keeps each golden run's digest, retained count and next
// cursor.
func TestSealedSeriesGolden(t *testing.T) {
	for _, tc := range tracedGoldens() {
		series := traceRun(t, tc.proc, Run{Graph: tc.g, Params: tc.params, Trials: 1, Seed: tc.seed})
		series.Seal()
		checkGolden(t, " sealed", tc, series)
	}
}

// TestSealedSeriesSize pins what a full traced ring packs into: a
// cobra k=2 run on cycle:208 with 100 trials fills the 512-frame ring
// (24 576 B of slots) and seals into at most 6 KiB.
func TestSealedSeriesSize(t *testing.T) {
	series := traceRun(t, "cobra", Run{Graph: graph.Cycle(208), Params: Params{"k": 2.0}, Trials: 100, Seed: 3})
	frames, _ := series.Snapshot()
	if len(frames) != obs.DefaultCapacity {
		t.Fatalf("retained %d frames, want a full ring of %d", len(frames), obs.DefaultCapacity)
	}
	size := series.Seal()
	t.Logf("512 frames sealed into %d B", size)
	if size > 6<<10 {
		t.Errorf("sealed series holds %d B, want at most 6 KiB", size)
	}
}

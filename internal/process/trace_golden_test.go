package process

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestTracedSeriesGolden pins what a traced run leaves in a job's
// series: an FNV-1a digest over every retained frame's fields except
// DurNanos (wall-clock metadata), the retained frame count, and the
// final next cursor. Each run has one trial, so exactly trial 0 is
// traced and the frames are deterministic. The values were recorded
// before the series stored frames by value; the cycle case runs past
// the default 512-frame capacity and pins which frames survive the
// wrap.
func TestTracedSeriesGolden(t *testing.T) {
	regular := graph.MustRandomRegular(600, 5, 2)
	for _, tc := range []struct {
		name   string
		proc   string
		g      *graph.Graph
		params Params
		seed   uint64
		frames int
		next   uint64
		digest uint64
	}{
		{"cobra-k2-pow2-regular", "cobra", graph.MustRandomRegular(1024, 4, 3), Params{"k": 2.0}, 5, 21, 21, 0x85b1666426da8ca1},
		{"cobra-k2-grid", "cobra", graph.Grid(2, 32), Params{"k": 2.0}, 6, 74, 74, 0x5c986765768d0b5b},
		{"general-bernoulli", "general", graph.MustRandomRegular(1000, 5, 1),
			Params{"k": 1.0, "k2": 3.0, "branching": "bernoulli", "p": 0.4}, 7, 25, 25, 0xd44ceb39b73fda80},
		{"sis-ideal", "sis", regular, Params{"k": 2.0}, 8, 18, 18, 0xf68c7f821d3c4623},
		{"sis-beta", "sis", regular, Params{"k": 2.0, "beta": 0.7, "max_steps": 400.0}, 9, 41, 41, 0xa27f3381971199a6},
		{"push", "push", regular, Params{}, 10, 21, 21, 0x1c4ef6698bf30dd4},
		{"walt", "walt", graph.Grid(2, 12), Params{"pebbles": 8.0}, 11, 512, 615, 0xd3c6d7ed8ad37ae7},
		{"cobra-k1-cycle-wraps", "cobra", graph.Cycle(64), Params{"k": 1.0}, 12, 512, 1825, 0x2a675af64f42b5e6},
	} {
		proc, ok := Get(tc.proc)
		if !ok {
			t.Fatalf("process %q not registered", tc.proc)
		}
		series := obs.NewSeries(0)
		run := Run{Graph: tc.g, Params: tc.params, Trials: 1, Seed: tc.seed, Observer: obs.NewTracer(series)}
		if _, err := proc.Run(context.Background(), run); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
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
			t.Errorf("%s: %d frames, next %d, digest %#x; golden %d, %d, %#x",
				tc.name, len(frames), next, h, tc.frames, tc.next, tc.digest)
		}
	}
}

package process

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestSimpleWalkGolden pins the simple-walk process's per-trial cover
// steps (8 trials, seed 27), recorded when the process still ran its own
// walker loop. complete:5 is below the 8 vertices at which the default
// kernel-switch θ keeps a single pebble on the sparse loop, so it fails
// if the simple walk stops pinning θ = -1. A cap too small to cover
// cycle:100 must fail the run and name the graph.
func TestSimpleWalkGolden(t *testing.T) {
	proc, _ := Get("simple-walk")
	for _, tc := range []struct {
		spec string
		g    *graph.Graph
		want []float64
	}{
		{"cycle:12", graph.Cycle(12), []float64{23, 41, 94, 90, 103, 66, 153, 81}},
		{"complete:5", graph.Complete(5), []float64{5, 9, 8, 5, 12, 9, 14, 9}},
		{"lollipop:8,8", graph.Lollipop(8, 8), []float64{1096, 357, 449, 230, 293, 623, 761, 134}},
		{"grid:2,9", graph.Grid(2, 9), []float64{1443, 687, 562, 956, 1324, 1060, 951, 633}},
	} {
		res, err := proc.Run(context.Background(), Run{Graph: tc.g, Params: Params{}, Trials: 8, Seed: 27})
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if !slices.Equal(res.Values, tc.want) {
			t.Errorf("%s: values %v, want %v", tc.spec, res.Values, tc.want)
		}
	}

	g := graph.Cycle(100)
	_, err := proc.Run(context.Background(), Run{Graph: g, Params: Params{"max_steps": 10.0}, Trials: 8, Seed: 27})
	if err == nil || !strings.Contains(err.Error(), g.String()) {
		t.Fatalf("max_steps 10 on %s: err = %v, want a cap error naming the graph", g, err)
	}
}

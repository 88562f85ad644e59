package process

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestTargetMeasuresHittingTime pins the optional "target" parameter of
// cobra and walt: on the same trial streams, each trial's hitting time
// of target is at most its cover time, and below it somewhere; a target
// or start outside the graph fails the run.
func TestTargetMeasuresHittingTime(t *testing.T) {
	g := graph.Cycle(24)
	for _, tc := range []struct {
		proc   string
		params Params
	}{
		{"cobra", Params{"k": 2.0}},
		{"walt", Params{"pebbles": 4.0}},
	} {
		t.Run(tc.proc, func(t *testing.T) {
			proc, _ := Get(tc.proc)
			hitParams := tc.params.Clone()
			hitParams["target"] = 3.0
			if err := proc.Validate(hitParams); err != nil {
				t.Fatalf("target rejected: %v", err)
			}
			run := Run{Graph: g, Params: tc.params, Trials: 8, Seed: 5}
			cover, err := proc.Run(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			run.Params = hitParams
			hit, err := proc.Run(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			shorter := false
			for i := range cover.Values {
				if hit.Values[i] > cover.Values[i] {
					t.Errorf("trial %d: hit %v after cover %v", i, hit.Values[i], cover.Values[i])
				}
				shorter = shorter || hit.Values[i] < cover.Values[i]
			}
			if !shorter {
				t.Errorf("hitting times %v equal cover times: target ignored", hit.Values)
			}

			// 2^32+3 would wrap to vertex 3 if narrowed before the
			// range check; start shares the check.
			for _, name := range []string{"target", "start"} {
				for _, v := range []float64{24, 1<<32 + 3} {
					run.Params = tc.params.Clone()
					run.Params[name] = v
					want := fmt.Sprintf("%s vertex %d", name, int(v))
					if _, err := proc.Run(context.Background(), run); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s = %v: err = %v, want %q", name, v, err, want)
					}
				}
			}
		})
	}
}

func TestCobraRefusesTargetWithCoverFraction(t *testing.T) {
	proc, _ := Get("cobra")
	if err := proc.Validate(Params{"k": 2.0, "target": 3.0, "cover_fraction": 0.5}); err == nil {
		t.Fatal("target with cover_fraction accepted")
	}
}

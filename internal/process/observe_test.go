package process

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestObserverDrawNeutral is the equivalence pin behind the observer
// contract: for every wired process, a fixed-seed run with an attached
// observer produces results deeply equal to the run without one. The
// traced loops replicate the unobserved run loops round for round, and
// traces only read state — any accidental draw from the trial stream
// breaks this test immediately.
func TestObserverDrawNeutral(t *testing.T) {
	g, err := graph.RandomRegular(40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proc   string
		params Params
	}{
		{"cobra", Params{"k": 2.0}},
		{"cobra", Params{"k": 2.0, "cover_fraction": 0.5}},
		{"cobra", Params{"k": 2.0, "target": 17.0}},
		{"general", Params{"k": 2.0, "branching": "bernoulli", "p": 0.3}},
		{"sis", Params{"k": 2.0, "beta": 0.8, "gamma": 0.9, "max_steps": 5000.0}},
		{"push", Params{}},
		{"pull", Params{}},
		{"walt", Params{"pebbles": 8.0}},
		{"walt", Params{"pebbles": 8.0, "target": 17.0}},
	}
	for _, tc := range cases {
		t.Run(tc.proc, func(t *testing.T) {
			proc, ok := Get(tc.proc)
			if !ok {
				t.Fatalf("process %q not registered", tc.proc)
			}
			run := Run{Graph: g, Params: tc.params, Trials: 6, Seed: 12345}
			plain, err := proc.Run(context.Background(), run)
			if err != nil {
				t.Fatalf("unobserved run: %v", err)
			}
			series := obs.NewSeries(0)
			run.Observer = obs.NewTracer(series)
			observed, err := proc.Run(context.Background(), run)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observer perturbed results:\nplain:    %+v\nobserved: %+v", plain, observed)
			}
			if series.Frames() == 0 {
				t.Fatal("observer attached but no frames recorded")
			}
		})
	}
}

// TestObserverFrames checks frame semantics on a traced cobra run:
// monotone coverage within a trial, full coverage at trial end, frontier
// positions within BFS-depth bounds.
func TestObserverFrames(t *testing.T) {
	g, err := graph.RandomRegular(30, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	proc, ok := Get("cobra")
	if !ok {
		t.Fatal("cobra not registered")
	}
	series := obs.NewSeries(4096)
	run := Run{
		Graph:    g,
		Params:   Params{"k": 2.0},
		Trials:   1,
		Seed:     99,
		Observer: obs.NewTracer(series),
	}
	if _, err := proc.Run(context.Background(), run); err != nil {
		t.Fatal(err)
	}
	frames, _ := series.Snapshot()
	if len(frames) == 0 {
		t.Fatal("no frames recorded")
	}
	maxDepth := 0
	for _, d := range graph.BFS(g, 0) {
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
	}
	prev := 0
	for i, f := range frames {
		if f.Round != i+1 {
			t.Fatalf("frame %d: round %d, want %d", i, f.Round, i+1)
		}
		if f.Covered < prev {
			t.Fatalf("round %d: coverage decreased %d -> %d", f.Round, prev, f.Covered)
		}
		prev = f.Covered
		if f.Frontier < 1 {
			t.Fatalf("round %d: empty frontier in a cobra walk", f.Round)
		}
		if f.MinPos < 0 || f.MaxPos > maxDepth || f.MinPos > f.MaxPos {
			t.Fatalf("round %d: positions [%d, %d] outside [0, %d]", f.Round, f.MinPos, f.MaxPos, maxDepth)
		}
		if f.Coverage != float64(f.Covered)/float64(g.N()) {
			t.Fatalf("round %d: coverage %v != %d/%d", f.Round, f.Coverage, f.Covered, g.N())
		}
	}
	last := frames[len(frames)-1]
	if last.Covered != g.N() {
		t.Fatalf("final frame covers %d of %d", last.Covered, g.N())
	}
	inFlight, mean := series.TrialProgress()
	if inFlight != 0 || mean != float64(len(frames)) {
		t.Fatalf("TrialProgress = %d, %v; want 0, %v", inFlight, mean, float64(len(frames)))
	}
}

// BenchmarkCobraRunTraced measures what observation costs a run: cobra
// k=2 on grid:2,128 for 16 trials, without an observer and with an
// obs.Tracer recording into a fresh series per run.
func BenchmarkCobraRunTraced(b *testing.B) {
	g := graph.Grid(2, 128)
	proc, _ := Get("cobra")
	for _, traced := range []bool{false, true} {
		name := "plain"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				run := Run{Graph: g, Params: Params{"k": 2.0}, Trials: 16, Seed: 1}
				if traced {
					run.Observer = obs.NewTracer(obs.NewSeries(0))
				}
				if _, err := proc.Run(context.Background(), run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

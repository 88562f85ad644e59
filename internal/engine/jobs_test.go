package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/process"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestDecodeSpec(t *testing.T) {
	spec, err := DecodeSpec("process", json.RawMessage(`{"process":"cobra","graph":"grid:2,8","params":{"k":2},"trials":5,"seed":1}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ps, ok := spec.(*ProcessSpec)
	if !ok {
		t.Fatalf("decoded %T, want *ProcessSpec", spec)
	}
	if ps.Process != "cobra" || ps.Graph != "grid:2,8" || ps.Params.Int("k", 0) != 2 || ps.Trials != 5 || ps.Seed != 1 {
		t.Errorf("decoded spec = %+v", ps)
	}

	for _, kind := range []string{"nonsense", "covertime", "cobra"} {
		if _, err := DecodeSpec(kind, json.RawMessage(`{}`)); err == nil {
			t.Errorf("unknown kind %q accepted", kind)
		}
	}
	if _, err := DecodeSpec("process", nil); err == nil {
		t.Error("missing body accepted")
	}
	if _, err := DecodeSpec("process", json.RawMessage(`{"process":"cobra","graph":"cycle:8","trials":1,"seed":1,"typo_field":3}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Per-trial caps and coverage targets of a sweep live in params.
	if _, err := DecodeSpec("sweep", json.RawMessage(`{"child":"process","process":"cobra","family":"cycle","sizes":[8],"k":2,"trials":1,"seed":1,"max_steps":5}`)); err == nil {
		t.Error("sweep-level max_steps accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		&ExperimentSpec{ID: "E999"},
		&ExperimentSpec{ID: "E1", Scale: "enormous"},
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid spec accepted", i, spec)
		}
	}
}

// TestProcessSpecMatchesDirectRun is the engine-equivalence check: a
// cobra job routed through the engine must reproduce, value for value,
// what the pre-engine CLI computed by calling sim.RunTrials directly
// with the same seed discipline.
func TestProcessSpecMatchesDirectRun(t *testing.T) {
	const (
		graphSpec = "grid:2,8"
		k         = 2
		trials    = 8
		seed      = uint64(42)
	)
	e := New(Options{Workers: 2})
	defer shutdown(t, e)

	out, err := e.RunSync(context.Background(), &ProcessSpec{
		Process: "cobra", Graph: graphSpec, GraphSeed: 7, Trials: trials, Seed: seed,
		Params: process.Params{"k": float64(k)},
	})
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}

	g, err := cli.ParseGraph(graphSpec, 7)
	if err != nil {
		t.Fatalf("parse graph: %v", err)
	}
	direct, err := sim.RunTrials(trials, seed, func(trial int, src *rng.Source) (float64, error) {
		w := core.New(g, core.Config{K: k}, src)
		w.Reset(0)
		steps, ok := w.RunUntilCovered()
		if !ok {
			return 0, fmt.Errorf("step cap exceeded")
		}
		return float64(steps), nil
	})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	if len(out.Values) != len(direct) {
		t.Fatalf("engine returned %d values, direct %d", len(out.Values), len(direct))
	}
	for i := range direct {
		if out.Values[i] != direct[i] {
			t.Errorf("trial %d: engine %v, direct %v", i, out.Values[i], direct[i])
		}
	}
	if out.Summary["n"] != float64(g.N()) || out.Summary["m"] != float64(g.M()) {
		t.Errorf("summary n/m = %v/%v, want %d/%d", out.Summary["n"], out.Summary["m"], g.N(), g.M())
	}
}

func TestProcessSpecBadGraphFails(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	if _, err := e.RunSync(context.Background(), &ProcessSpec{
		Process: "cobra", Graph: "dodecahedron:12", Trials: 1, Seed: 1,
		Params: process.Params{"k": 2.0},
	}); err == nil {
		t.Error("unknown graph family accepted")
	}
	if _, err := e.RunSync(context.Background(), &ProcessSpec{
		Process: "cobra", Graph: "cycle:8", Trials: 1, Seed: 1,
		Params: process.Params{"k": 2.0, "start": 99.0},
	}); err == nil || !strings.Contains(err.Error(), "start vertex") {
		t.Errorf("out-of-range start error = %v", err)
	}
}

// TestProcessSpecCoverFraction runs the cobra process to a partial
// coverage target, the broadcast view of the walk.
func TestProcessSpecCoverFraction(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)
	out, err := e.RunSync(context.Background(), &ProcessSpec{
		Process: "cobra", Graph: "complete:16", Trials: 6, Seed: 3,
		Params: process.Params{"k": 2.0, "cover_fraction": 0.5},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(out.Values) != 6 {
		t.Fatalf("got %d values, want 6", len(out.Values))
	}
	for i, v := range out.Values {
		if v < 1 {
			t.Errorf("trial %d covered half of K16 in %v rounds", i, v)
		}
	}
	if out.Summary["messages_mean"] <= 0 {
		t.Errorf("messages_mean = %v, want > 0", out.Summary["messages_mean"])
	}
	if out.Summary["n"] != 16 {
		t.Errorf("summary n = %v, want 16", out.Summary["n"])
	}
}

func TestExperimentSpec(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	out, err := e.RunSync(context.Background(), &ExperimentSpec{ID: "E14", Scale: "quick", Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Meta["experiment"] != "E14" {
		t.Errorf("meta experiment = %q, want E14", out.Meta["experiment"])
	}
	if out.Meta["claim"] == "" {
		t.Error("experiment output missing claim")
	}
	if len(out.Tables) == 0 {
		t.Error("experiment output has no tables")
	}
}

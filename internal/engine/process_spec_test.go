package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/process"
)

func TestProcessSpecValidate(t *testing.T) {
	bad := []*ProcessSpec{
		{Process: "teleport", Graph: "cycle:8", Trials: 1},                                              // unknown process
		{Process: "cobra", Trials: 1, Params: process.Params{"k": 2.0}},                                 // no graph
		{Process: "cobra", Graph: "cycle:8", Trials: 0, Params: process.Params{"k": 2.0}},               // no trials
		{Process: "cobra", Graph: "cycle:8", Trials: 1},                                                 // k required
		{Process: "cobra", Graph: "cycle:8", Trials: 1, Params: process.Params{"k": 2.5}},               // non-integer k
		{Process: "cobra", Graph: "cycle:8", Trials: 1, Params: process.Params{"k": 2.0, "bogus": 1.0}}, // unknown param
		{Process: "push", Graph: "cycle:8", Trials: 1, Params: process.Params{"drop": 1.0}},             // drop out of range
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly valid", i, spec)
		}
	}
	good := &ProcessSpec{Process: "cobra", Graph: "cycle:8", Trials: 2, Seed: 1,
		Params: process.Params{"k": 2.0}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestCobraSweepGolden pins the cobra sweep that cobractl cover submits:
// per-point Values and fingerprints. The Values were recorded from the
// retired cover-time sweep child, which ran this grid point for point,
// so the cover-time numbers carry over unchanged; the fingerprints pin
// the cache addresses of stored process sweeps.
func TestCobraSweepGolden(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)

	spec := &SweepSpec{
		Child: "process", Process: "cobra", Families: []string{"grid:2", "regular:5"},
		Sizes: []int{8, 12, 16}, K: 2, Trials: 4, Seed: 42,
	}
	if got, want := Fingerprint(spec), "67ece206d93a7c4f24716c7d64a21119dabb6fd5655bcfee41f6f902c91ec352"; got != want {
		t.Errorf("sweep fingerprint drifted:\n got %s\nwant %s", got, want)
	}
	out, err := e.RunSync(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	golden := [][]float64{
		{20, 20, 29, 22}, {31, 34, 28, 31}, {38, 39, 44, 46}, // grid:2
		{4, 4, 4, 8}, {6, 8, 7, 5}, {7, 9, 7, 8}, // regular:5
	}
	if len(out.Points) != len(golden) {
		t.Fatalf("sweep produced %d points, want %d", len(out.Points), len(golden))
	}
	for i, want := range golden {
		if got := out.Points[i].Values; !reflect.DeepEqual(got, want) {
			t.Errorf("point %d (%s): values %v, golden %v", i, out.Points[i].Graph, got, want)
		}
	}

	// The address of the sweep behind cobractl cover's grid golden
	// (cmd/cobractl/testdata/cover_grid.txt).
	cli := &SweepSpec{Child: "process", Process: "cobra", Family: "grid:2", Sizes: []int{8, 16, 32}, K: 2, Trials: 10, Seed: 1}
	if got, want := Fingerprint(cli), "5c0387dbb4b0c895f451b8da38615d79684810307328473f4f10bd1684645460"; got != want {
		t.Errorf("cobractl cover sweep fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}

func TestProcessSweepSpansProcesses(t *testing.T) {
	e := New(Options{Workers: 2, QueueDepth: 64})
	defer e.Shutdown(context.Background())

	spec := &SweepSpec{
		Child:     "process",
		Processes: []string{"cobra", "push"},
		Family:    "cycle",
		Sizes:     []int{6, 8},
		Trials:    2,
		Seed:      3,
		Params:    process.Params{"k": 2.0},
	}
	out, err := e.RunSync(context.Background(), spec)
	if err != nil {
		t.Fatalf("process sweep: %v", err)
	}
	if len(out.Points) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(out.Points))
	}
	wantOrder := []struct {
		process string
		size    int
	}{{"cobra", 6}, {"cobra", 8}, {"push", 6}, {"push", 8}}
	for i, w := range wantOrder {
		p := out.Points[i]
		if p.Process != w.process || p.Size != w.size {
			t.Errorf("point %d = (%s, %d), want (%s, %d)", i, p.Process, p.Size, w.process, w.size)
		}
		if len(p.Values) != 2 {
			t.Errorf("point %d has %d values, want 2", i, len(p.Values))
		}
	}
	if len(out.Tables) != 2 {
		t.Errorf("sweep rendered %d tables, want one per (process, family) slice: 2", len(out.Tables))
	}
}

func TestProcessSweepKsAxisOverridesParams(t *testing.T) {
	e := New(Options{Workers: 2, QueueDepth: 64})
	defer e.Shutdown(context.Background())

	out, err := e.RunSync(context.Background(), &SweepSpec{
		Child:   "process",
		Process: "cobra",
		Family:  "cycle",
		Sizes:   []int{8},
		Ks:      []int{1, 2},
		Trials:  2,
		Seed:    5,
	})
	if err != nil {
		t.Fatalf("ks sweep: %v", err)
	}
	if len(out.Points) != 2 || out.Points[0].K != 1 || out.Points[1].K != 2 {
		t.Fatalf("ks axis points = %+v", out.Points)
	}
}

func TestProcessSweepValidation(t *testing.T) {
	bad := []*SweepSpec{
		{Child: "process", Family: "cycle", Sizes: []int{8}, Trials: 1},                                             // no process
		{Child: "process", Process: "teleport", Family: "cycle", Sizes: []int{8}, Trials: 1},                        // unknown process
		{Child: "process", Process: "walt", Family: "cycle", Sizes: []int{8}, Ks: []int{1, 2}, Trials: 1},           // walt has no k
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, Trials: 1},                           // k missing entirely
		{Child: "experiment", Process: "cobra", IDs: []string{"E14"}},                                               // process field on experiment sweep
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, K: 2, Ks: []int{1, 2}, Trials: 1},    // k and ks
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, K: 2, Trials: 1, IDs: []string{"x"}}, // experiment field
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("sweep %d (%+v) unexpectedly valid", i, spec)
		}
	}
	ok := &SweepSpec{Child: "process", Process: "push", Family: "cycle", Sizes: []int{8}, Trials: 1, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("k-less process sweep rejected: %v", err)
	}
}

// TestProcessSweepCacheDeterminism pins that an identical process sweep
// resubmission is a cache hit with an identical aggregate — the
// soundness condition for fingerprint-addressed caching of the new spec
// kind.
func TestProcessSweepCacheDeterminism(t *testing.T) {
	e := New(Options{Workers: 2, QueueDepth: 64})
	defer e.Shutdown(context.Background())

	spec := func() *SweepSpec {
		return &SweepSpec{
			Child: "process", Process: "push-pull", Family: "path", Sizes: []int{6, 9},
			Trials: 2, Seed: 21,
		}
	}
	first, err := e.Submit(spec(), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	out1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	second, err := e.Submit(spec(), 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	snap := second.Snapshot()
	if !snap.CacheHit || snap.State != Done {
		t.Fatalf("resubmission = %+v, want cached done", snap)
	}
	out2, _ := second.Output()
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("cached aggregate differs")
	}
	if strings.TrimSpace(out1.Meta["sweep"]) != "process" {
		t.Errorf("aggregate meta = %v", out1.Meta)
	}
}

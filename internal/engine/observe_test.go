package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/metrics"
)

// TestJobSeriesRecordsFrames runs an observable spec through the engine
// and checks that per-round frames land in the job's series, and that
// observation does not perturb the output relative to a plain run.
func TestJobSeriesRecordsFrames(t *testing.T) {
	spec := &ProcessSpec{
		Process: "cobra",
		Graph:   "regular:64,4",
		Params:  map[string]any{"k": 2.0},
		Trials:  3,
		Seed:    42,
	}

	e := New(Options{Workers: 2})
	defer shutdown(t, e)
	job, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	out, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if job.Series() == nil {
		t.Fatal("job has no series")
	}
	if job.Series().Frames() == 0 {
		t.Fatal("observable job recorded no frames")
	}
	inFlight, mean := job.Series().TrialProgress()
	if inFlight != 0 {
		t.Errorf("finished job reports %d in-flight rounds", inFlight)
	}
	if mean <= 0 {
		t.Errorf("finished job reports mean rounds %v, want > 0", mean)
	}

	// Engine-level draw neutrality: the same spec run without the
	// engine's tracer (directly via Run) must match byte for byte.
	plain, err := spec.Run(context.Background(), func(done, total int) {})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if !reflect.DeepEqual(out.Values, plain.Values) {
		t.Fatalf("engine observation perturbed values:\nengine: %v\nplain:  %v", out.Values, plain.Values)
	}
}

// TestSubmitTracedPropagatesTrace checks that a trace ID stamped at
// submission shows up in the job's status and is inherited by sweep
// children.
func TestSubmitTracedPropagatesTrace(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)

	job, err := e.SubmitTraced(&testSpec{Name: "traced", Payload: 1}, 0, "trace-abc")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st := job.Snapshot(); st.Trace != "trace-abc" {
		t.Errorf("job trace = %q, want trace-abc", st.Trace)
	}

	sweep := &SweepSpec{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8, 16}, K: 2, Trials: 1, Seed: 3}
	sj, err := e.SubmitTraced(sweep, 0, "trace-sweep")
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	if _, err := sj.Wait(context.Background()); err != nil {
		t.Fatalf("wait sweep: %v", err)
	}
	if st := sj.Snapshot(); st.Trace != "trace-sweep" {
		t.Errorf("sweep trace = %q, want trace-sweep", st.Trace)
	}
	children := 0
	for _, j := range e.Jobs() {
		st := j.Snapshot()
		if st.Kind == "process" {
			children++
			if st.Trace != "trace-sweep" {
				t.Errorf("sweep child %s trace = %q, want trace-sweep", st.ID, st.Trace)
			}
		}
	}
	if children != 2 {
		t.Errorf("found %d sweep children, want 2", children)
	}

	// Untraced submissions stay untraced.
	plain, err := e.Submit(&testSpec{Name: "untraced", Payload: 2}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := plain.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st := plain.Snapshot(); st.Trace != "" {
		t.Errorf("untraced job has trace %q", st.Trace)
	}
}

// TestEngineMetrics checks that an engine built with a registry feeds
// the per-process run counter and the job-latency histogram.
func TestEngineMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Options{Workers: 2, Registry: reg})
	defer shutdown(t, e)

	spec := &ProcessSpec{
		Process: "cobra",
		Graph:   "cycle:16",
		Params:  map[string]any{"k": 2.0},
		Trials:  1,
		Seed:    7,
	}
	job, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		`cobrad_process_runs_total{process="cobra"} 1`,
		"cobrad_job_duration_seconds_count 1",
		"cobrad_round_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestInterpolateChildUnits pins the sweep progress interpolation: a
// running child contributes fractional credit for its in-flight trial,
// bounded so a long trial can never overshoot the per-child unit.
func TestInterpolateChildUnits(t *testing.T) {
	cases := []struct {
		name                string
		done, tot, inFlight int
		meanRounds          float64
		want                int
	}{
		{"no total", 0, 0, 5, 10, 0},
		{"no progress no flight", 0, 4, 0, 0, 0},
		{"half done", 2, 4, 0, 0, 500},
		{"all done", 4, 4, 0, 0, 1000},
		{"in-flight half trial", 0, 4, 5, 10, 125},      // 0.5 of a 250-unit trial
		{"in-flight capped at 95%", 0, 4, 100, 10, 237}, // frac clamps to 0.95 -> 237.5 -> 237
		{"done plus flight", 2, 4, 5, 10, 625},          // 500 + 125
		{"never exceeds unit", 4, 4, 100, 1, 1000},      // done==tot: no in-flight credit
		{"cap at unit", 3, 3, 50, 1, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := interpolateChildUnits(tc.done, tc.tot, tc.inFlight, tc.meanRounds)
			if got != tc.want {
				t.Errorf("interpolateChildUnits(%d, %d, %d, %v) = %d, want %d",
					tc.done, tc.tot, tc.inFlight, tc.meanRounds, got, tc.want)
			}
		})
	}
}

package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestRunSyncRunsUnobserved checks that RunSync, whose caller reads only
// the output, attaches no tracer: neither a point job nor a sweep's
// children record frames, and the values equal an observed run's.
func TestRunSyncRunsUnobserved(t *testing.T) {
	spec := &ProcessSpec{
		Process: "cobra",
		Graph:   "regular:64,4",
		Params:  map[string]any{"k": 2.0},
		Trials:  3,
		Seed:    42,
	}
	observed := New(Options{Workers: 2})
	defer shutdown(t, observed)
	job, err := observed.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	want, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	e := New(Options{Workers: 2})
	defer shutdown(t, e)
	got, err := e.RunSync(context.Background(), spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatalf("unobserved values %v, observed %v", got.Values, want.Values)
	}
	if _, err := e.RunSync(context.Background(), &SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{16, 24}, K: 2, Trials: 2, Seed: 1,
	}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	jobs := e.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("%d jobs, want the point, the sweep and its two children", len(jobs))
	}
	for _, j := range jobs {
		if n := j.Series().Frames(); n != 0 {
			t.Errorf("job %s (%s) recorded %d frames", j.ID(), j.spec.Kind(), n)
		}
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

// TestFinishedJobsRetainPackedSeries measures what a finished traced
// job keeps: 500 cobra k=2 jobs of 8 trials each, cache off, on a small
// grid and on an expander. With the ring kept, each retained 25.9 KiB,
// 24 KiB of it the ring; packed, each keeps at most 6 KiB. The
// SeriesBytes gauge counts the packed frames and drops to zero when
// the janitor evicts the jobs.
func TestFinishedJobsRetainPackedSeries(t *testing.T) {
	const jobs = 500
	for _, g := range []string{"grid:2,16", "regular:4096,5"} {
		e := New(Options{Workers: 2, CacheSize: -1})
		spec := func(seed uint64) *ProcessSpec {
			return &ProcessSpec{Process: "cobra", Graph: g, Params: map[string]any{"k": 2.0}, Trials: 8, Seed: seed}
		}
		// The first job resolves the graph, which the store keeps.
		if _, err := e.RunSync(context.Background(), spec(0)); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		finished := make([]*Job, jobs)
		for i := range finished {
			j, err := e.Submit(spec(uint64(i+1)), 0)
			if err != nil {
				t.Fatalf("%s: submit %d: %v", g, i, err)
			}
			finished[i] = j
		}
		sealed := 0
		for _, j := range finished {
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatalf("%s: %v", g, err)
			}
			if j.Series().Frames() == 0 {
				t.Fatalf("%s: job %s recorded no frames", g, j.ID())
			}
			sealed += j.Series().Seal()
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / jobs
		t.Logf("%s: %d B retained per finished job, %d B of packed frames", g, perJob, sealed/jobs)
		if perJob > 6<<10 {
			t.Errorf("%s: each finished job retains %d B, want at most 6 KiB", g, perJob)
		}
		if got := e.Metrics().SeriesBytes; got != sealed {
			t.Errorf("%s: SeriesBytes = %d, want the %d sealed bytes", g, got, sealed)
		}
		e.evictExpired(time.Now().Add(time.Hour))
		if got := e.Metrics().SeriesBytes; got != 0 {
			t.Errorf("%s: SeriesBytes = %d after evicting every job, want 0", g, got)
		}
		shutdown(t, e)
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

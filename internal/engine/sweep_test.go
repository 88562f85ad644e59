package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/process"
	"repro/internal/store"
)

func TestSweepSpecValidation(t *testing.T) {
	cases := []*SweepSpec{
		{Child: "teleport", Sizes: []int{8}, K: 2, Trials: 1},
		{Child: "process", Process: "cobra", K: 2, Trials: 1},                                   // no family, no sizes
		{Child: "process", Process: "cobra", Family: "cycle", K: 2, Trials: 1},                  // no sizes
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, Trials: 1},       // no k
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, K: 2, Trials: 0}, // child invalid
		{Child: "process", Process: "cobra", Family: "cycle", Families: []string{"path"}, Sizes: []int{8}, K: 2, Trials: 1},
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, K: 2, Ks: []int{2}, Trials: 1},
		{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8}, K: 2, Trials: 1, IDs: []string{"E1"}},
		{Child: "process", Process: "cobra", Family: "wormhole:3", Sizes: []int{8}, K: 2, Trials: 1}, // bad family
		{Child: "experiment"},                                       // no ids
		{Child: "experiment", IDs: []string{"E999"}},                // unknown experiment
		{Child: "experiment", IDs: []string{"E1"}, Sizes: []int{8}}, // grid field on experiment sweep
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid sweep accepted", i, spec)
		}
	}

	ok := &SweepSpec{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{8, 16}, K: 2, Trials: 2, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sweep rejected: %v", err)
	}
}

// TestSweepMatchesClientSideLoop is the sweep-equivalence acceptance
// test: a server-side sweep must produce, point for point and value for
// value, exactly what a client-side loop produces by submitting one
// cobra ProcessSpec per size with the documented seed discipline.
func TestSweepMatchesClientSideLoop(t *testing.T) {
	const (
		family = "grid:2"
		k      = 2
		trials = 4
		seed   = uint64(42)
	)
	sizes := []int{5, 6, 7}

	sweepEng := New(Options{Workers: 2})
	defer shutdown(t, sweepEng)
	sweep := &SweepSpec{Child: "process", Process: "cobra", Family: family, Sizes: sizes, K: k, Trials: trials, Seed: seed}
	out, err := sweepEng.RunSync(context.Background(), sweep)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(out.Points) != len(sizes) {
		t.Fatalf("sweep returned %d points, want %d", len(out.Points), len(sizes))
	}

	// The client-side loop (separate engine: no shared cache).
	loopEng := New(Options{Workers: 1})
	defer shutdown(t, loopEng)
	pts, err := sweep.points()
	if err != nil {
		t.Fatalf("points: %v", err)
	}
	for si := range sizes {
		direct, err := loopEng.RunSync(context.Background(), pts[si].spec)
		if err != nil {
			t.Fatalf("client-side point %d: %v", si, err)
		}
		p := out.Points[si]
		if p.Size != sizes[si] || p.Graph == "" {
			t.Errorf("point %d coordinates = %+v", si, p)
		}
		if len(p.Values) != trials {
			t.Fatalf("point %d has %d values, want %d", si, len(p.Values), trials)
		}
		for i := range direct.Values {
			if p.Values[i] != direct.Values[i] {
				t.Errorf("point %d trial %d: sweep %v, loop %v", si, i, p.Values[i], direct.Values[i])
			}
		}
		if p.Summary["mean"] != direct.Summary["mean"] {
			t.Errorf("point %d mean: sweep %v, loop %v", si, p.Summary["mean"], direct.Summary["mean"])
		}
	}
	if len(out.Tables) != 1 || len(out.Tables[0].Rows) != len(sizes) {
		t.Errorf("sweep tables = %+v, want one table with %d rows", out.Tables, len(sizes))
	}
}

// TestSweepGridFanOut checks the ks × sizes grid shape, child linkage,
// and aggregated progress bookkeeping.
func TestSweepGridFanOut(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)

	sizes := []int{6, 8, 10}
	ks := []int{1, 2}
	j, err := e.Submit(&SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: sizes, Ks: ks, Trials: 2, Seed: 3,
	}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	out, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	wantPoints := len(sizes) * len(ks)
	if len(out.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(out.Points), wantPoints)
	}
	st := j.Snapshot()
	if len(st.Children) != wantPoints {
		t.Errorf("sweep has %d children, want %d", len(st.Children), wantPoints)
	}
	if st.Done != st.Total || st.Total != sweepProgressUnit*wantPoints {
		t.Errorf("final progress = %d/%d, want %d/%d", st.Done, st.Total,
			sweepProgressUnit*wantPoints, sweepProgressUnit*wantPoints)
	}
	for i, id := range st.Children {
		c, ok := e.Job(id)
		if !ok {
			t.Fatalf("child %s not tracked", id)
		}
		cs := c.Snapshot()
		if cs.Parent != j.ID() {
			t.Errorf("child %d parent = %q, want %q", i, cs.Parent, j.ID())
		}
		if cs.State != Done {
			t.Errorf("child %d state = %s", i, cs.State)
		}
	}
	// Flat order: ks slowest, sizes fastest.
	idx := 0
	for _, k := range ks {
		for _, size := range sizes {
			p := out.Points[idx]
			if p.K != k || p.Size != size {
				t.Errorf("point %d = (k=%d,size=%d), want (k=%d,size=%d)", idx, p.K, p.Size, k, size)
			}
			idx++
		}
	}
	if len(out.Tables) != len(ks) {
		t.Errorf("got %d tables, want one per k slice (%d)", len(out.Tables), len(ks))
	}
}

func TestSweepExperimentChildren(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	out, err := e.RunSync(context.Background(), &SweepSpec{
		Child: "experiment", IDs: []string{"E14"}, Scale: "quick", Seed: 1,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(out.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(out.Points))
	}
	p := out.Points[0]
	if p.Experiment != "E14" || p.Meta["experiment"] != "E14" {
		t.Errorf("point = %+v, want experiment E14", p)
	}
	if len(p.Tables) == 0 || len(out.Tables) == 0 {
		t.Error("experiment sweep lost its tables")
	}
}

// TestSweepCancellationPropagatesToChildren: canceling the parent must
// cancel queued and running children and finish the parent as canceled.
func TestSweepCancellationPropagatesToChildren(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	// Park the single worker so every sweep child stays queued.
	release := make(chan struct{})
	defer close(release)
	if _, err := e.Submit(blockingSpec("parker", release), 10); err != nil {
		t.Fatalf("park worker: %v", err)
	}
	j, err := e.Submit(&SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{64, 128, 256}, K: 2, Trials: 500, Seed: 9,
	}, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	if !e.Cancel(j.ID()) {
		t.Fatal("cancel returned false")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait error = %v, want canceled", err)
	}
	if st := j.Snapshot(); st.State != Canceled {
		t.Errorf("parent state = %s, want canceled", st.State)
	}
	for _, c := range j.Children() {
		if st := c.Snapshot(); st.State != Canceled {
			t.Errorf("child %s state = %s, want canceled", st.ID, st.State)
		}
	}
}

// TestSweepDedupesPointsThroughStore: a new sweep sharing grid points
// with work already on disk re-runs only the novel points.
func TestSweepDedupesPointsThroughStore(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	e1 := New(Options{Workers: 2, Store: st1})
	small := &SweepSpec{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{6, 8}, K: 2, Trials: 3, Seed: 11}
	if _, err := e1.RunSync(context.Background(), small); err != nil {
		t.Fatalf("small sweep: %v", err)
	}
	shutdown(t, e1)

	// Restart on the same directory and grow the sweep by one size: the
	// two old points share fingerprints (same per-index seed streams)
	// and must be served from the store.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	e2 := New(Options{Workers: 2, Store: st2})
	defer shutdown(t, e2)
	grown := &SweepSpec{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{6, 8, 10}, K: 2, Trials: 3, Seed: 11}
	j, err := e2.Submit(grown, 0)
	if err != nil {
		t.Fatalf("grown sweep: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	children := j.Children()
	if len(children) != 3 {
		t.Fatalf("grown sweep has %d children, want 3", len(children))
	}
	for i, want := range []bool{true, true, false} {
		if got := children[i].Snapshot().CacheHit; got != want {
			t.Errorf("child %d cache hit = %v, want %v", i, got, want)
		}
	}
	if m := e2.Metrics(); m.StoreHits != 2 {
		t.Errorf("store hits = %d, want 2", m.StoreHits)
	}

	// And resubmitting the identical grown sweep is a parent-level hit.
	again, err := e2.Submit(&SweepSpec{Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{6, 8, 10}, K: 2, Trials: 3, Seed: 11}, 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st := again.Snapshot(); st.State != Done || !st.CacheHit {
		t.Errorf("identical sweep resubmission = %+v, want immediate cached done", st)
	}
}

// TestSweepSurvivesDaemonRestartAsParentCacheHit: the whole-sweep
// aggregate is itself content-addressed, so a restarted engine serves a
// repeated sweep from disk with zero child runs.
func TestSweepSurvivesDaemonRestartAsParentCacheHit(t *testing.T) {
	dir := t.TempDir()
	spec := func() *SweepSpec {
		return &SweepSpec{Child: "process", Process: "cobra", Family: "path", Sizes: []int{6, 9}, K: 2, Trials: 2, Seed: 21}
	}
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	e1 := New(Options{Workers: 2, Store: st1})
	first, err := e1.RunSync(context.Background(), spec())
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	m1 := e1.Metrics()
	shutdown(t, e1)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	e2 := New(Options{Workers: 2, Store: st2})
	defer shutdown(t, e2)
	j, err := e2.Submit(spec(), 0)
	if err != nil {
		t.Fatalf("resubmit sweep: %v", err)
	}
	if st := j.Snapshot(); st.State != Done || !st.CacheHit {
		t.Fatalf("restarted sweep = %+v, want immediate cached done", st)
	}
	second, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fmt.Sprintf("%+v", second.Points) != fmt.Sprintf("%+v", first.Points) {
		t.Errorf("restored sweep differs:\nbefore: %+v\nafter:  %+v", first.Points, second.Points)
	}
	// Zero children were spawned: only the parent job exists.
	if m2 := e2.Metrics(); m2.Submitted != 1 || m2.Completed != 1 {
		t.Errorf("restart metrics = %+v, want exactly one (cached) submission", m2)
	}
	if m1.Submitted != 3 {
		t.Errorf("first run submitted %d jobs, want 3 (parent + 2 children)", m1.Submitted)
	}
}

// TestSweepFailurePropagates: one failing point fails the whole sweep
// with a point-attributed error.
func TestSweepFailurePropagates(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)
	// A one-round cap cannot cover a 64-cycle, so that point errors out.
	j, err := e.Submit(&SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{4, 64}, K: 1, Trials: 1, Seed: 1,
		Params: process.Params{"max_steps": 1.0},
	}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("sweep with an impossible point succeeded")
	}
	if st := j.Snapshot(); st.State != Failed {
		t.Errorf("state = %s (%s), want failed", st.State, st.Error)
	}
}

// TestSweepLargerThanQueueCompletes: the coordinator stages fan-out
// against the bounded queue, so a sweep with more points than queue
// slots completes instead of failing with ErrQueueFull.
func TestSweepLargerThanQueueCompletes(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 2})
	defer shutdown(t, e)

	sizes := []int{5, 6, 7, 8, 9, 10}
	out, err := e.RunSync(context.Background(), &SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: sizes, K: 2, Trials: 2, Seed: 13,
	})
	if err != nil {
		t.Fatalf("oversized sweep failed: %v", err)
	}
	if len(out.Points) != len(sizes) {
		t.Fatalf("got %d points, want %d", len(out.Points), len(sizes))
	}
	if m := e.Metrics(); m.Rejected != 0 {
		t.Errorf("rejected = %d, want 0 (staged fan-out, not queue-full errors)", m.Rejected)
	}
}

// TestSweepFailsFastWhenChildCanceled: individually cancelling one
// child must promptly cancel its siblings and finish the sweep, not let
// the rest of the grid run to completion first.
func TestSweepFailsFastWhenChildCanceled(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	// Park the single worker so every child stays queued (cancellable
	// without ever running).
	release := make(chan struct{})
	defer close(release)
	if _, err := e.Submit(blockingSpec("parker", release), 10); err != nil {
		t.Fatalf("park worker: %v", err)
	}
	j, err := e.Submit(&SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{6, 8, 10}, K: 2, Trials: 2, Seed: 7,
	}, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	var children []*Job
	for deadline := time.Now().Add(5 * time.Second); ; {
		children = j.Children()
		if len(children) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep has %d children, want 3", len(children))
		}
		time.Sleep(time.Millisecond)
	}
	if !e.Cancel(children[1].ID()) {
		t.Fatal("cancel child returned false")
	}
	// The parent must go terminal while the worker is still parked: no
	// sibling gets to run after the fail-fast teardown.
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait error = %v, want canceled", err)
	}
	if st := j.Snapshot(); st.State != Canceled {
		t.Errorf("parent state = %s, want canceled", st.State)
	}
	for _, c := range children {
		if st := c.Snapshot(); !st.State.Terminal() {
			t.Errorf("child %s not terminal after fail-fast", st.ID)
		}
	}
}

// TestSweepShutdownRace: shutting the engine down while sweeps are in
// flight must not deadlock or leak coordinators.
func TestSweepShutdownRace(t *testing.T) {
	e := New(Options{Workers: 2})
	for i := 0; i < 4; i++ {
		if _, err := e.Submit(&SweepSpec{
			Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{6, 8}, K: 2, Trials: 2, Seed: uint64(i),
		}, 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range e.Jobs() {
		if st := j.Snapshot(); !st.State.Terminal() {
			t.Errorf("job %s (%s) not terminal after shutdown: %s", st.ID, st.Kind, st.State)
		}
	}
}

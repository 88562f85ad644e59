package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// testSpec is a controllable job for scheduler tests. Only the exported
// fields participate in the fingerprint, so distinct Name/Payload values
// are distinct cache keys while fn stays test-local.
type testSpec struct {
	Name    string `json:"name"`
	Payload int    `json:"payload"`

	fn func(ctx context.Context, progress func(done, total int)) (*Output, error)
}

func (s *testSpec) Kind() string    { return "test" }
func (s *testSpec) Validate() error { return nil }

func (s *testSpec) Run(ctx context.Context, progress func(done, total int)) (*Output, error) {
	if s.fn != nil {
		return s.fn(ctx, progress)
	}
	return &Output{Values: []float64{float64(s.Payload)}}, nil
}

// blockingSpec runs until released or canceled.
func blockingSpec(name string, release <-chan struct{}) *testSpec {
	return &testSpec{
		Name: name,
		fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
			select {
			case <-release:
				return &Output{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

func shutdown(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	a1 := Fingerprint(&testSpec{Name: "a", Payload: 1})
	a2 := Fingerprint(&testSpec{Name: "a", Payload: 1})
	b := Fingerprint(&testSpec{Name: "a", Payload: 2})
	c := Fingerprint(&ProcessSpec{Process: "cobra", Graph: "cycle:8", Trials: 1, Seed: 1})
	if a1 != a2 {
		t.Errorf("equal specs fingerprint differently: %s vs %s", a1, a2)
	}
	if a1 == b {
		t.Errorf("distinct specs share fingerprint %s", a1)
	}
	if a1 == c {
		t.Errorf("distinct kinds share fingerprint %s", a1)
	}
}

func TestSubmitAndWait(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)
	job, err := e.Submit(&testSpec{Name: "basic", Payload: 7}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	out, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if len(out.Values) != 1 || out.Values[0] != 7 {
		t.Errorf("got values %v, want [7]", out.Values)
	}
	if st := job.Snapshot(); st.State != Done || st.CacheHit {
		t.Errorf("snapshot = %+v, want done without cache hit", st)
	}
}

func TestPriorityOrdering(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	release := make(chan struct{})
	if _, err := e.Submit(blockingSpec("blocker", release), 100); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}

	var mu sync.Mutex
	var order []string
	record := func(name string) *testSpec {
		return &testSpec{
			Name: name,
			fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return &Output{}, nil
			},
		}
	}
	// Queued behind the blocker: priorities 1, 3, 2, and a FIFO tie at 3.
	var jobs []*Job
	for _, sub := range []struct {
		name string
		pri  int
	}{{"p1", 1}, {"p3-first", 3}, {"p2", 2}, {"p3-second", 3}} {
		j, err := e.Submit(record(sub.name), sub.pri)
		if err != nil {
			t.Fatalf("submit %s: %v", sub.name, err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	want := []string{"p3-first", "p3-second", "p2", "p1"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

func TestCacheHitServesIdenticalResult(t *testing.T) {
	e := New(Options{Workers: 2})
	defer shutdown(t, e)

	spec := &testSpec{Name: "cached", Payload: 42}
	first, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	out1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	second, err := e.Submit(&testSpec{Name: "cached", Payload: 42}, 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st := second.Snapshot()
	if st.State != Done || !st.CacheHit {
		t.Fatalf("resubmitted job = %+v, want immediate cached done", st)
	}
	out2, err := second.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait cached: %v", err)
	}
	if out2 != out1 {
		t.Errorf("cache returned a different output object")
	}
	if m := e.Metrics(); m.CacheHits != 1 || m.Submitted != 2 || m.Completed != 2 {
		t.Errorf("metrics = %+v, want 2 submitted, 2 completed, 1 cache hit", m)
	}
}

func TestCacheEviction(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: 2})
	defer shutdown(t, e)

	run := func(name string) {
		t.Helper()
		if _, err := e.RunSync(context.Background(), &testSpec{Name: name}); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
	}
	run("a")
	run("b")
	run("c") // evicts a

	j, err := e.Submit(&testSpec{Name: "a"}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if j.Snapshot().CacheHit {
		t.Errorf("evicted entry still served from cache")
	}
	j2, err := e.Submit(&testSpec{Name: "c"}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !j2.Snapshot().CacheHit {
		t.Errorf("recently used entry was evicted")
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	boom := errors.New("boom")
	fail := func() *testSpec {
		return &testSpec{
			Name: "failing",
			fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
				return nil, boom
			},
		}
	}
	j, err := e.Submit(fail(), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("wait error = %v, want boom", err)
	}
	if j.Snapshot().State != Failed {
		t.Errorf("state = %s, want failed", j.Snapshot().State)
	}
	j2, err := e.Submit(fail(), 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if j2.Snapshot().CacheHit {
		t.Errorf("failed result was cached")
	}
	if _, err := j2.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("second wait error = %v, want boom", err)
	}
	if m := e.Metrics(); m.Failed != 2 {
		t.Errorf("metrics.Failed = %d, want 2", m.Failed)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	release := make(chan struct{})
	defer close(release)
	if _, err := e.Submit(blockingSpec("blocker", release), 0); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, err := e.Submit(&testSpec{Name: "victim"}, 0)
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	if !e.Cancel(queued.ID()) {
		t.Fatalf("cancel returned false for queued job")
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait error = %v, want canceled", err)
	}
	if st := queued.Snapshot(); st.State != Canceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	if e.Cancel(queued.ID()) {
		t.Errorf("cancel of terminal job reported true")
	}
	if e.Cancel("j999999") {
		t.Errorf("cancel of unknown job reported true")
	}
}

func TestCancelRunningJob(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	started := make(chan struct{})
	spec := &testSpec{
		Name: "running",
		fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	j, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if !e.Cancel(j.ID()) {
		t.Fatalf("cancel returned false for running job")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait error = %v, want canceled", err)
	}
	if m := e.Metrics(); m.Canceled != 1 {
		t.Errorf("metrics.Canceled = %d, want 1", m.Canceled)
	}
}

// TestCancelRacesWorkerPickup hammers the window between a worker
// popping a job from the heap and marking it running: Cancel landing in
// that window must not double-close the job's done channel (which would
// panic the process).
func TestCancelRacesWorkerPickup(t *testing.T) {
	e := New(Options{Workers: 4, QueueDepth: 4096})
	defer shutdown(t, e)
	for i := 0; i < 500; i++ {
		j, err := e.Submit(&testSpec{Name: "race", Payload: i}, 0)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		go e.Cancel(j.ID())
		if _, err := j.Wait(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("wait: %v", err)
		}
		if st := j.Snapshot(); st.State != Done && st.State != Canceled {
			t.Fatalf("state = %s, want done or canceled", st.State)
		}
	}
}

// TestCancelLeavesPoppedJobToWorker pins who finishes a job a worker
// has popped but not yet marked running: Cancel signals it and reports
// true but leaves done open, and the worker's runJob ends it canceled
// without running its spec. Finishing it in Cancel would report the job
// canceled while its spec could still run and record frames.
func TestCancelLeavesPoppedJobToWorker(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	blocker := &testSpec{Name: "blocker", fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
		close(started)
		<-release
		return &Output{}, nil
	}}
	if _, err := e.Submit(blocker, 0); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	ran := make(chan struct{}, 1)
	b, err := e.Submit(&testSpec{Name: "popped", fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
		ran <- struct{}{}
		return &Output{}, nil
	}}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	e.mu.Lock()
	popped := heap.Pop(&e.pending).(*Job)
	e.mu.Unlock()
	if popped != b {
		t.Fatalf("popped %s, want %s", popped.ID(), b.ID())
	}
	if !e.Cancel(b.ID()) {
		t.Fatal("Cancel of a popped job returned false")
	}
	select {
	case <-b.Done():
		t.Fatal("Cancel finished a job a worker holds")
	default:
	}
	e.runJob(b)
	select {
	case <-b.Done():
	default:
		t.Fatal("runJob left the canceled job open")
	}
	if st := b.Snapshot(); st.State != Canceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	select {
	case <-ran:
		t.Error("the canceled job's spec ran")
	default:
	}
}

func TestQueueFull(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, e)

	release := make(chan struct{})
	defer close(release)
	if _, err := e.Submit(blockingSpec("blocker", release), 0); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	// The blocker may not have been picked up yet; fill the queue until
	// rejection, which must happen by the second pending submission.
	var err error
	for i := 0; i < 3; i++ {
		_, err = e.Submit(&testSpec{Name: fmt.Sprintf("fill-%d", i)}, 0)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit error = %v, want ErrQueueFull", err)
	}
	if m := e.Metrics(); m.Rejected < 1 {
		t.Errorf("metrics.Rejected = %d, want >= 1", m.Rejected)
	}
}

func TestProgressReporting(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	j, err := e.Submit(&testSpec{
		Name: "progress",
		fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
			for i := 0; i <= 10; i++ {
				progress(i, 10)
			}
			return &Output{}, nil
		},
	}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st := j.Snapshot(); st.Done != 10 || st.Total != 10 {
		t.Errorf("progress = %d/%d, want 10/10", st.Done, st.Total)
	}
}

func TestShutdownDrainsQueueAndRejectsSubmissions(t *testing.T) {
	e := New(Options{Workers: 2})
	var jobs []*Job
	for i := 0; i < 20; i++ {
		j, err := e.Submit(&testSpec{Name: "drain", Payload: i}, 0)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	shutdown(t, e)
	for _, j := range jobs {
		if st := j.Snapshot(); st.State != Done {
			t.Errorf("job %s state = %s after drain, want done", st.ID, st.State)
		}
	}
	if _, err := e.Submit(&testSpec{Name: "late"}, 0); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown error = %v, want ErrShutdown", err)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	e := New(Options{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	j, err := e.Submit(blockingSpec("straggler", release), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want deadline exceeded", err)
	}
	if st := j.Snapshot(); st.State != Canceled {
		t.Errorf("straggler state = %s, want canceled", st.State)
	}
}

// TestConcurrentSubmissionHammer drives the pool from many goroutines at
// once; run under -race it checks the scheduler's synchronization. The
// payload space is deliberately small so cache hits and fresh runs
// interleave.
func TestConcurrentSubmissionHammer(t *testing.T) {
	e := New(Options{Workers: 8, QueueDepth: 4096})
	defer shutdown(t, e)

	const (
		goroutines = 16
		perG       = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := (g*perG + i) % 10
				j, err := e.Submit(&testSpec{Name: "hammer", Payload: payload}, i%3)
				if err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
				out, err := j.Wait(context.Background())
				if err != nil {
					errs <- fmt.Errorf("wait: %w", err)
					return
				}
				if len(out.Values) != 1 || out.Values[0] != float64(payload) {
					errs <- fmt.Errorf("payload %d got values %v", payload, out.Values)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Submitted != goroutines*perG {
		t.Errorf("submitted = %d, want %d", m.Submitted, goroutines*perG)
	}
	if m.Completed != m.Submitted {
		t.Errorf("completed = %d, want %d", m.Completed, m.Submitted)
	}
	// Payloads cycle mod 10, so from iteration 10 on each goroutine
	// resubmits a spec it has itself already completed — a guaranteed
	// cache hit (results publish before Wait returns).
	if want := int64(goroutines * (perG - 10)); m.CacheHits < want {
		t.Errorf("cache hits = %d, want >= %d", m.CacheHits, want)
	}
}

package engine

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// countingSpec is a testSpec whose executions are counted, so tests can
// assert that a result was served from cache/store with zero re-runs.
func countingSpec(name string, payload int, runs *atomic.Int64) *testSpec {
	return &testSpec{
		Name:    name,
		Payload: payload,
		fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
			runs.Add(1)
			return &Output{
				Values:  []float64{float64(payload)},
				Summary: map[string]float64{"mean": float64(payload)},
			}, nil
		},
	}
}

// TestResultsSurviveEngineRestart is the restart-durability acceptance
// test: submit a job, tear the engine down, recreate it on the same
// data directory, and resubmit — the identical result must be served
// from the persistent store with zero re-runs.
func TestResultsSurviveEngineRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	e1 := New(Options{Workers: 2, Store: st1})
	first, err := e1.RunSync(context.Background(), countingSpec("durable", 7, &runs))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("first run executed %d times, want 1", runs.Load())
	}
	shutdown(t, e1)

	// A fresh engine on the same directory: the in-memory cache is
	// empty, so the hit below can only come from disk.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if st2.Len() != 1 {
		t.Fatalf("reopened store has %d records, want 1", st2.Len())
	}
	e2 := New(Options{Workers: 2, Store: st2})
	defer shutdown(t, e2)

	j, err := e2.Submit(countingSpec("durable", 7, &runs), 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st := j.Snapshot(); st.State != Done || !st.CacheHit {
		t.Fatalf("resubmitted job = %+v, want immediate cached done", st)
	}
	second, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if runs.Load() != 1 {
		t.Errorf("restart re-ran the job: %d executions, want 1", runs.Load())
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Errorf("restored result differs:\nbefore: %s\nafter:  %s", a, b)
	}
	if m := e2.Metrics(); m.StoreHits != 1 || m.StoreEntries != 1 {
		t.Errorf("metrics = store_hits=%d store_entries=%d, want 1/1", m.StoreHits, m.StoreEntries)
	}
}

// TestStoreMissFallsThroughToExecution: a store-backed engine with no
// matching record must run the job and write the record through.
func TestStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	e := New(Options{Workers: 1, Store: st})
	defer shutdown(t, e)

	var runs atomic.Int64
	if _, err := e.RunSync(context.Background(), countingSpec("wt", 3, &runs)); err != nil {
		t.Fatalf("run: %v", err)
	}
	fp := Fingerprint(&testSpec{Name: "wt", Payload: 3})
	payload, ok, err := st.Get(fp)
	if err != nil || !ok {
		t.Fatalf("record not written through: ok=%v err=%v", ok, err)
	}
	var out Output
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("stored payload does not decode: %v", err)
	}
	if len(out.Values) != 1 || out.Values[0] != 3 {
		t.Errorf("stored values = %v, want [3]", out.Values)
	}
}

// TestJobTableEviction covers the TTL fix for the unbounded job table:
// terminal jobs older than the TTL are evicted by the janitor, while
// queued/running jobs are immune regardless of age.
func TestJobTableEviction(t *testing.T) {
	e := New(Options{Workers: 1, JobTTL: 30 * time.Millisecond})
	defer shutdown(t, e)

	done, err := e.Submit(&testSpec{Name: "short-lived"}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := done.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}

	release := make(chan struct{})
	defer close(release)
	running, err := e.Submit(blockingSpec("immortal-while-running", release), 0)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := e.Job(done.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job still tracked after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := e.Job(running.ID()); !ok {
		t.Error("running job was evicted")
	}
	m := e.Metrics()
	if m.Evicted < 1 {
		t.Errorf("evicted = %d, want >= 1", m.Evicted)
	}
	if m.Jobs != 1 {
		t.Errorf("tracked jobs = %d, want 1 (only the running job)", m.Jobs)
	}
}

// TestEvictionIsDisabledWithNegativeTTL pins the opt-out.
func TestEvictionIsDisabledWithNegativeTTL(t *testing.T) {
	e := New(Options{Workers: 1, JobTTL: -1})
	defer shutdown(t, e)
	j, err := e.Submit(&testSpec{Name: "keeper"}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if n := e.evictExpired(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Errorf("evictExpired with TTL disabled evicted %d jobs", n)
	}
	if _, ok := e.Job(j.ID()); !ok {
		t.Error("job evicted despite disabled TTL")
	}
}

// TestEvictionSparesChildrenOfLiveSweeps: a terminal child must outlive
// its TTL while its parent sweep is still aggregating.
func TestEvictionSparesChildrenOfLiveSweeps(t *testing.T) {
	e := New(Options{Workers: 1, JobTTL: time.Hour})
	defer shutdown(t, e)

	spec := &SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle", Sizes: []int{6, 8}, K: 2, Trials: 1, Seed: 5,
	}
	pts, err := spec.points()
	if err != nil {
		t.Fatalf("points: %v", err)
	}
	// Warm the cache with point 0's exact spec, so that child becomes
	// terminal the instant the sweep fans out, then park the worker so
	// child 1 stays queued and the parent stays live.
	if _, err := e.RunSync(context.Background(), pts[0].spec); err != nil {
		t.Fatalf("warm point 0: %v", err)
	}
	release := make(chan struct{})
	if _, err := e.Submit(blockingSpec("parker", release), 0); err != nil {
		t.Fatalf("submit parker: %v", err)
	}
	sweep, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	// Children fan out asynchronously; wait for both to register.
	var children []*Job
	for deadline := time.Now().Add(5 * time.Second); ; {
		children = sweep.Children()
		if len(children) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep has %d children, want 2", len(children))
		}
		time.Sleep(time.Millisecond)
	}
	if st := children[0].Snapshot(); st.State != Done || !st.CacheHit {
		t.Fatalf("child 0 = %+v, want immediate cached done", st)
	}

	// Fast-forward far past the TTL: child 0 is terminal and ancient by
	// this clock, but its parent sweep is live, so it must be spared.
	far := time.Now().Add(48 * time.Hour)
	e.evictExpired(far)
	for _, c := range children {
		if _, ok := e.Job(c.ID()); !ok {
			t.Errorf("child %s of live sweep was evicted", c.ID())
		}
	}

	close(release)
	if _, err := sweep.Wait(context.Background()); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Parent terminal: now everything old is evictable.
	e.evictExpired(time.Now().Add(96 * time.Hour))
	if _, ok := e.Job(sweep.ID()); ok {
		t.Error("terminal sweep survived eviction")
	}
	if m := e.Metrics(); m.Jobs != 0 {
		t.Errorf("tracked jobs = %d, want 0", m.Jobs)
	}
}

// TestWatchStreamsProgressAndTerminalState covers the SSE feed's
// engine-side contract: a watcher observes progress updates and always
// ends on the terminal snapshot.
func TestWatchStreamsProgressAndTerminalState(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)

	step := make(chan struct{})
	j, err := e.Submit(&testSpec{
		Name: "watched",
		fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
			for i := 1; i <= 3; i++ {
				<-step
				progress(i, 3)
			}
			return &Output{}, nil
		},
	}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ch, cancel := j.Watch()
	defer cancel()

	sawProgress := false
	var last Status
	timeout := time.After(10 * time.Second)
	for i := 0; i < 3; i++ {
		step <- struct{}{}
	}
	for !last.State.Terminal() {
		select {
		case st := <-ch:
			last = st
			if st.Done > 0 && st.State == Running {
				sawProgress = true
			}
		case <-j.Done():
			last = j.Snapshot()
		case <-timeout:
			t.Fatal("watcher never observed a terminal state")
		}
	}
	if last.State != Done {
		t.Errorf("final state = %s, want done", last.State)
	}
	if last.Done != 3 || last.Total != 3 {
		t.Errorf("final progress = %d/%d, want 3/3", last.Done, last.Total)
	}
	_ = sawProgress // progress events are coalesced; observing any is not guaranteed
}

// parkedPutStore is a ResultStore whose Put signals entered and then
// parks until release closes.
type parkedPutStore struct {
	entered, release chan struct{}
}

func (s *parkedPutStore) Get(string) ([]byte, bool, error) { return nil, false, nil }
func (s *parkedPutStore) Len() int                         { return 0 }

func (s *parkedPutStore) Put(string, []byte) error {
	close(s.entered)
	<-s.release
	return nil
}

// TestWatchersSeeDoneAfterPublication pins finishJob's ordering: no
// Watch subscriber may see a job Done while its result is still being
// written, or a client that resubmits on that signal misses the cache.
func TestWatchersSeeDoneAfterPublication(t *testing.T) {
	st := &parkedPutStore{entered: make(chan struct{}), release: make(chan struct{})}
	e := New(Options{Workers: 1, Store: st})
	defer shutdown(t, e)
	unpark := sync.OnceFunc(func() { close(st.release) })
	defer unpark() // before shutdown, which waits for the parked worker

	run := make(chan struct{})
	job, err := e.Submit(blockingSpec("published", run), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	updates, stop := job.Watch()
	defer stop()
	close(run)
	select {
	case <-st.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("store Put never started")
	}
	// Put is parked: everything published so far must be non-terminal.
	for drained := false; !drained; {
		select {
		case s := <-updates:
			if s.State.Terminal() {
				t.Fatalf("watcher saw %s while the result was still being stored", s.State)
			}
		default:
			drained = true
		}
	}
	unpark()
	for {
		select {
		case s := <-updates:
			if s.State == Done {
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatal("watcher never saw the job done")
		}
	}
}

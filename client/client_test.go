package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/process"
	"repro/internal/service"
)

func newTestClient(t *testing.T, opts engine.Options) (*Client, *engine.Engine) {
	t.Helper()
	eng := engine.New(opts)
	ts := httptest.NewServer(service.New(eng).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	})
	c, err := New(ts.URL)
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	return c, eng
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"://", "ftp://host"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) unexpectedly succeeded", bad)
		}
	}
}

// countingTransport counts the requests it carries.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestWithHTTPClientCarriesRequests pins that New applies its options:
// every request, the SSE follow included, must ride the supplied
// client's transport.
func TestWithHTTPClientCarriesRequests(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	ts := httptest.NewServer(service.New(eng).Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	rt := &countingTransport{}
	c, err := New(ts.URL, WithHTTPClient(&http.Client{Transport: rt}))
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	if got := rt.n.Load(); got != 1 {
		t.Fatalf("supplied transport carried %d requests after one call, want 1", got)
	}
	if _, _, err := c.Run(ctx, "process", engine.ProcessSpec{
		Process: "cobra", Graph: "cycle:8", Trials: 2, Seed: 1,
		Params: process.Params{"k": 2.0},
	}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rt.n.Load(); got < 3 {
		t.Fatalf("supplied transport carried %d requests after submit/follow/result, want >= 3", got)
	}
}

func TestProcessesDiscovery(t *testing.T) {
	c, _ := newTestClient(t, engine.Options{Workers: 1})
	procs, err := c.Processes(context.Background())
	if err != nil {
		t.Fatalf("processes: %v", err)
	}
	if len(procs) < 8 {
		t.Fatalf("discovery returned %d processes, want >= 8", len(procs))
	}
	byName := map[string]process.Info{}
	for _, p := range procs {
		byName[p.Name] = p
	}
	cobra, ok := byName["cobra"]
	if !ok || len(cobra.Params) == 0 {
		t.Fatalf("cobra missing from discovery: %+v", procs)
	}
}

func TestSubmitFollowResultRoundTrip(t *testing.T) {
	c, _ := newTestClient(t, engine.Options{Workers: 2})
	ctx := context.Background()

	var updates []engine.Status
	out, final, err := c.Run(ctx, "process", engine.ProcessSpec{
		Process: "cobra", Graph: "grid:2,6", Trials: 4, Seed: 1,
		Params: process.Params{"k": 2.0},
	}, func(st engine.Status) { updates = append(updates, st) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if final.State != engine.Done || len(out.Values) != 4 {
		t.Fatalf("final = %+v, out = %+v", final, out)
	}
	if len(updates) == 0 || !updates[len(updates)-1].State.Terminal() {
		t.Errorf("status stream = %+v, want terminal last update", updates)
	}
}

func TestSweepRoundTrip(t *testing.T) {
	c, _ := newTestClient(t, engine.Options{Workers: 2, QueueDepth: 64})
	ctx := context.Background()

	out, final, err := c.RunSweep(ctx, engine.SweepSpec{
		Child:     "process",
		Processes: []string{"cobra", "push"},
		Family:    "cycle",
		Sizes:     []int{6, 8},
		Trials:    2,
		Seed:      3,
		Params:    process.Params{"k": 2.0},
	}, nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(out.Points) != 4 {
		t.Fatalf("sweep points = %d, want 4", len(out.Points))
	}
	sweep, children, err := c.Sweep(ctx, final.ID)
	if err != nil {
		t.Fatalf("sweep view: %v", err)
	}
	if sweep.Kind != "sweep" || len(children) != 4 {
		t.Errorf("sweep view = %+v with %d children, want 4", sweep, len(children))
	}
}

func TestErrorEnvelopeSurfacesAsTypedError(t *testing.T) {
	c, _ := newTestClient(t, engine.Options{Workers: 1})
	ctx := context.Background()

	_, err := c.Submit(ctx, "process", engine.ProcessSpec{
		Process: "teleport", Graph: "cycle:8", Trials: 1,
	}, 0)
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit error = %v (%T), want *client.Error", err, err)
	}
	if apiErr.Code != "bad_request" || apiErr.StatusCode != 400 {
		t.Errorf("envelope = %+v, want bad_request/400", apiErr)
	}
	if apiErr.IsRetryable() {
		t.Error("bad_request reported as retryable")
	}

	if _, err := c.Job(ctx, "j424242"); err == nil {
		t.Error("unknown job lookup succeeded")
	} else if !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Errorf("unknown job error = %v, want not_found envelope", err)
	}
}

func TestJobsListingAndFilter(t *testing.T) {
	c, _ := newTestClient(t, engine.Options{Workers: 2})
	ctx := context.Background()

	for seed := 1; seed <= 2; seed++ {
		if _, _, err := c.Run(ctx, "process", engine.ProcessSpec{
			Process: "push", Graph: "cycle:8", Trials: 2, Seed: uint64(seed),
		}, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	jobs, err := c.Jobs(ctx, "done")
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("done jobs = %d, want 2", len(jobs))
	}
	// Most recent first, deterministically.
	if jobs[0].ID <= jobs[1].ID {
		t.Errorf("listing order = %s, %s; want most recent first", jobs[0].ID, jobs[1].ID)
	}
	if _, err := c.Jobs(ctx, "bogus"); err == nil {
		t.Error("bogus status filter accepted")
	}
}

func TestCancelAndWait(t *testing.T) {
	c, eng := newTestClient(t, engine.Options{Workers: 1})
	ctx := context.Background()

	// Park the single worker so the next submission stays queued.
	release := make(chan struct{})
	defer close(release)
	if _, err := eng.Submit(&blockSpec{release: release}, 10); err != nil {
		t.Fatalf("park worker: %v", err)
	}
	st, err := c.SubmitProcess(ctx, engine.ProcessSpec{
		Process: "push", Graph: "cycle:8", Trials: 2, Seed: 9,
	}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ok, err := c.Cancel(ctx, st.ID)
	if err != nil || !ok {
		t.Fatalf("cancel = %v, %v; want true", ok, err)
	}
	final, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != engine.Canceled {
		t.Errorf("state = %s, want canceled", final.State)
	}
}

// blockSpec parks a worker until released, mirroring the service tests'
// deterministic scheduling helper.
type blockSpec struct {
	Name    string `json:"name"`
	release <-chan struct{}
}

func (s *blockSpec) Kind() string    { return "block" }
func (s *blockSpec) Validate() error { return nil }
func (s *blockSpec) Run(ctx context.Context, progress func(done, total int)) (*engine.Output, error) {
	select {
	case <-s.release:
		return &engine.Output{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

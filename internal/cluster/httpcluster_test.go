// Network-native cluster tests: a real coordinator (store + cluster +
// engine + service handler on a loopback listener) and HTTP runners
// joined with no shared filesystem, their RPCs routed through the
// deterministic fault-injection transport. The suites prove the
// exactly-once contract — journal of one entry per point, aggregates
// byte-identical to a single-node run — holds under message drops,
// duplicated deliveries, delays, mid-body disconnects, a network
// partition, and a coordinator restart.
package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/cluster/faulttransport"
	"repro/internal/engine"
	"repro/internal/process"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/store"
)

// coordNode is the coordinator side: the only node with a data dir,
// serving /v1/cluster/* from its own store and running local workers
// that contend on the same leases the HTTP runners use.
type coordNode struct {
	dir string
	st  *store.Store
	cl  *cluster.Member
	srv *cluster.Server
	eng *engine.Engine
	ts  *httptest.Server
}

func startCoordinator(t *testing.T, workers int) *coordNode {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open coordinator store: %v", err)
	}
	cl, err := cluster.Join(st, cluster.Config{
		NodeID: "coord", Role: cluster.RoleCoordinator,
		LeaseTTL: 5 * time.Second, Heartbeat: 50 * time.Millisecond,
		Poll: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("join coordinator: %v", err)
	}
	eng := engine.New(engine.Options{Workers: workers, Store: st, Cluster: cl, NodeID: "coord"})
	cs := cluster.NewServer(st, cl)
	srv := service.New(eng, service.WithCluster(cl), service.WithClusterServer(cs))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdownEngine(t, eng)
		cl.Leave()
	})
	return &coordNode{dir: dir, st: st, cl: cl, srv: cs, eng: eng, ts: ts}
}

// runnerNode is one diskless member: joined over the fault transport,
// with an engine whose result store is the coordinator's (via RPC) and
// the watch loop wired the way cobrad wires it.
type runnerNode struct {
	hb  *cluster.Member
	eng *engine.Engine
	ft  *faulttransport.Transport
}

func startRunner(t *testing.T, baseURL, id string, cfg faulttransport.Config) *runnerNode {
	t.Helper()
	ft := faulttransport.New(cfg, nil)
	hb, err := cluster.JoinHTTP(cluster.HTTPConfig{
		BaseURL: baseURL, NodeID: id, Role: cluster.RoleRunner,
		LeaseTTL: 5 * time.Second, Heartbeat: 100 * time.Millisecond,
		Poll:   25 * time.Millisecond,
		Client: &http.Client{Transport: ft, Timeout: 15 * time.Second},
	})
	if err != nil {
		t.Fatalf("join %s over http: %v", id, err)
	}
	eng := engine.New(engine.Options{Workers: 2, Store: hb.RemoteStore(), Cluster: hb, NodeID: id})

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cluster.Watch(hb, stop, cluster.WatchHooks{
			HasResult: func(fp string) bool {
				_, ok, _ := hb.RemoteStore().Get(fp)
				return ok
			},
			Submit: func(a cluster.Announcement) error {
				if eng.HasLiveFingerprint(a.Fingerprint) {
					return nil
				}
				spec, err := engine.DecodeSpec(a.Kind, a.Spec)
				if err != nil {
					return nil
				}
				_, err = eng.Submit(spec, a.Priority)
				return err
			},
			Cancel: func(fp string, at time.Time) { eng.CancelFingerprint(fp, at) },
		})
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		shutdownEngine(t, eng)
		hb.Leave()
	})
	return &runnerNode{hb: hb, eng: eng, ft: ft}
}

func shutdownEngine(t *testing.T, eng *engine.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Shutdown(ctx); err != nil {
		t.Errorf("engine shutdown: %v", err)
	}
}

// sweep12 is the canonical 12-point sweep the suites drain; the seed
// keeps fingerprints distinct between tests.
func sweep12(seed uint64) *engine.SweepSpec {
	return &engine.SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle",
		Sizes: []int{32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208},
		K:     2, Trials: 300, Seed: seed,
	}
}

// singleNodeGolden computes the sweep on a plain clusterless engine:
// the byte-level reference every clustered aggregate must match.
func singleNodeGolden(t *testing.T, spec *engine.SweepSpec) []byte {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	defer shutdownEngine(t, eng)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, err := eng.RunSync(ctx, spec)
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	return data
}

// assertJournalExactlyOnce demands the ledger holds exactly one entry
// per sweep point: n distinct keys, n total entries — no point lost,
// none double-billed, regardless of which node computed it.
func assertJournalExactlyOnce(t *testing.T, entries []cluster.JournalEntry, n int) {
	t.Helper()
	keys := map[string]int{}
	for _, e := range entries {
		keys[e.Key]++
	}
	if len(keys) != n || len(entries) != n {
		t.Fatalf("journal has %d entries over %d distinct keys, want exactly %d/%d: %+v",
			len(entries), len(keys), n, n, entries)
	}
}

// TestHTTPClusterFaultSchedules drives the 12-point sweep through a
// coordinator and two diskless HTTP runners under seeded fault
// schedules. Whatever the transport does — drop requests, lose
// responses after the server executed, deliver twice, delay, cut
// bodies mid-read — the sweep completes, the journal bills each point
// exactly once, and the aggregate is byte-identical to a single-node
// run.
func TestHTTPClusterFaultSchedules(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		cfg  faulttransport.Config
		// fired asserts the schedule actually injected something.
		fired func(ft *faulttransport.Transport) int64
	}{
		{
			name: "clean", seed: 101,
			cfg: faulttransport.Config{Seed: 1},
		},
		{
			name: "drops", seed: 102,
			cfg: faulttransport.Config{Seed: 2, DropRequest: 0.15, DropResponse: 0.1},
			fired: func(ft *faulttransport.Transport) int64 {
				return ft.Drops.Load() + ft.ResponseDrops.Load()
			},
		},
		{
			name: "duplicates", seed: 103,
			cfg:   faulttransport.Config{Seed: 3, Duplicate: 0.3},
			fired: func(ft *faulttransport.Transport) int64 { return ft.Duplicates.Load() },
		},
		{
			name: "delays", seed: 104,
			cfg:   faulttransport.Config{Seed: 4, Delay: 0.5, MaxDelay: 40 * time.Millisecond},
			fired: func(ft *faulttransport.Transport) int64 { return ft.Delays.Load() },
		},
		{
			name: "chaos", seed: 105,
			cfg: faulttransport.Config{Seed: 5, DropRequest: 0.1, DropResponse: 0.1,
				Duplicate: 0.2, Delay: 0.3, Disconnect: 0.05},
			fired: func(ft *faulttransport.Transport) int64 {
				return ft.Drops.Load() + ft.ResponseDrops.Load() +
					ft.Duplicates.Load() + ft.Delays.Load() + ft.Disconnects.Load()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := sweep12(tc.seed)
			golden := singleNodeGolden(t, spec)

			coord := startCoordinator(t, 1)
			r1 := startRunner(t, coord.ts.URL, "runner-1", tc.cfg)
			r2 := startRunner(t, coord.ts.URL, "runner-2",
				faulttransport.Config{Seed: tc.cfg.Seed + 1000, DropRequest: tc.cfg.DropRequest,
					DropResponse: tc.cfg.DropResponse, Duplicate: tc.cfg.Duplicate,
					Delay: tc.cfg.Delay, MaxDelay: tc.cfg.MaxDelay, Disconnect: tc.cfg.Disconnect})

			job, err := coord.eng.Submit(spec, 0)
			if err != nil {
				t.Fatalf("submit sweep: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			out, err := job.Wait(ctx)
			if err != nil {
				t.Fatalf("sweep under %s schedule: %v", tc.name, err)
			}
			if data, _ := json.Marshal(out); string(data) != string(golden) {
				t.Errorf("clustered aggregate differs from single-node run:\n%s\n%s", data, golden)
			}

			entries, err := coord.cl.Journal()
			if err != nil {
				t.Fatalf("journal: %v", err)
			}
			assertJournalExactlyOnce(t, entries, 12)

			if tc.fired != nil {
				if n := tc.fired(r1.ft) + tc.fired(r2.ft); n == 0 {
					t.Errorf("%s schedule injected nothing across %d requests",
						tc.name, r1.ft.Requests.Load()+r2.ft.Requests.Load())
				}
			}
		})
	}
}

// TestHTTPClusterPartitionHeals cuts one runner off mid-sweep for a
// window shorter than the RPC retry budget: its in-flight operations
// ride out the partition, the sweep completes, and the journal still
// bills each point exactly once.
func TestHTTPClusterPartitionHeals(t *testing.T) {
	spec := sweep12(201)
	golden := singleNodeGolden(t, spec)

	coord := startCoordinator(t, 1)
	r1 := startRunner(t, coord.ts.URL, "runner-1", faulttransport.Config{Seed: 11})
	r2 := startRunner(t, coord.ts.URL, "runner-2", faulttransport.Config{Seed: 12})

	job, err := coord.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	// Partition runner-2 once the sweep is moving, heal it after 1s —
	// inside the backend's ~4.5s retry budget, so claims and result
	// pushes in flight when the cable was cut complete after the heal
	// instead of erroring.
	deadline := time.After(30 * time.Second)
	for {
		entries, _ := coord.cl.Journal()
		if len(entries) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sweep never started computing")
		case <-time.After(5 * time.Millisecond):
		}
	}
	r2.ft.SetPartitioned(true)
	time.Sleep(time.Second)
	r2.ft.SetPartitioned(false)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep across partition: %v", err)
	}
	if data, _ := json.Marshal(out); string(data) != string(golden) {
		t.Errorf("aggregate differs from single-node run after partition:\n%s\n%s", data, golden)
	}
	entries, err := coord.cl.Journal()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	assertJournalExactlyOnce(t, entries, 12)
	if r2.ft.Partitioned.Load() == 0 {
		t.Error("partition window injected nothing; the test proved less than it claims")
	}
	_ = r1
}

// swapHandler atomically swaps the handler behind one listener, so a
// coordinator can "crash" (serve 503) and come back as a new process
// on the same address.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// TestHTTPClusterCoordinatorRestart kills the coordinator process
// mid-sweep — 503s on its address — and brings up a fresh one over the
// same data dir. The sweep was submitted to a runner, so its parent
// survives; leases and the token counter persist in the arbiter's
// state file, so renewals issued across the restart are still honored;
// and the journal comes out exactly-once because every mutation that
// failed during the outage was an idempotent retry.
func TestHTTPClusterCoordinatorRestart(t *testing.T) {
	spec := sweep12(301)
	golden := singleNodeGolden(t, spec)

	dir := t.TempDir()
	boot := func() (*store.Store, *cluster.Member, *engine.Engine, http.Handler) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("open coordinator store: %v", err)
		}
		cl, err := cluster.Join(st, cluster.Config{
			NodeID: "coord", Role: cluster.RoleCoordinator,
			LeaseTTL: 5 * time.Second, Heartbeat: 50 * time.Millisecond,
			Poll: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("join coordinator: %v", err)
		}
		eng := engine.New(engine.Options{Workers: 1, Store: st, Cluster: cl, NodeID: "coord"})
		srv := service.New(eng,
			service.WithCluster(cl),
			service.WithClusterServer(cluster.NewServer(st, cl)))
		return st, cl, eng, srv.Handler()
	}

	swap := &swapHandler{}
	_, cl1, eng1, h1 := boot()
	swap.set(h1)
	ts := httptest.NewServer(swap)
	t.Cleanup(ts.Close)

	r1 := startRunner(t, ts.URL, "runner-1", faulttransport.Config{Seed: 21})
	r2 := startRunner(t, ts.URL, "runner-2", faulttransport.Config{Seed: 22})
	_ = r2

	// The sweep's owner is runner-1: its parent must outlive the
	// coordinator it pushes results through.
	job, err := r1.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit sweep to runner: %v", err)
	}

	deadline := time.After(30 * time.Second)
	for {
		entries, _ := cl1.Journal()
		if len(entries) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sweep never started computing")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Crash: the address answers 503 while the old process dies and the
	// new one boots over the same data dir. The outage is held at 600ms
	// — well inside the runners' retry budget.
	swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"unavailable","message":"coordinator restarting"}}`,
			http.StatusServiceUnavailable)
	}))
	shutdownEngine(t, eng1)
	cl1.Leave()
	time.Sleep(600 * time.Millisecond)
	_, cl2, eng2, h2 := boot()
	swap.set(h2)
	t.Cleanup(func() {
		shutdownEngine(t, eng2)
		cl2.Leave()
	})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep across coordinator restart: %v", err)
	}
	if data, _ := json.Marshal(out); string(data) != string(golden) {
		t.Errorf("aggregate differs from single-node run after restart:\n%s\n%s", data, golden)
	}
	entries, err := cl2.Journal()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	assertJournalExactlyOnce(t, entries, 12)
}

// TestHTTPClusterCancellationPropagates publishes a cancellation for a
// long-running sweep announced by one runner and checks a peer's watch
// loop kills its adopted copy — cancellation crossing nodes purely
// over RPC.
func TestHTTPClusterCancellationPropagates(t *testing.T) {
	coord := startCoordinator(t, 1)
	r1 := startRunner(t, coord.ts.URL, "runner-1", faulttransport.Config{Seed: 31})
	r2 := startRunner(t, coord.ts.URL, "runner-2", faulttransport.Config{Seed: 32})

	spec := &engine.SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle",
		Sizes: []int{64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 416},
		K:     2, Trials: 20, Seed: 401,
	}
	// A ghost holds the first point's lease on the coordinator's arbiter
	// until the assertions are done, so neither copy of the sweep can
	// finish before the cancel lands. The point is seeded as the sweep
	// seeds it: graph stream 9000, trial stream 0.
	graph, err := cli.FamilySpec(spec.Family, spec.Sizes[0])
	if err != nil {
		t.Fatalf("family spec: %v", err)
	}
	held := engine.Fingerprint(&engine.ProcessSpec{
		Process: "cobra", Graph: graph, GraphSeed: rng.Stream(spec.Seed, 9000),
		Params: process.Params{"k": 2.0}, Trials: spec.Trials, Seed: rng.Stream(spec.Seed, 0),
	})
	ghost, ok, err := coord.srv.AcquireLease(held, "ghost", time.Minute)
	if err != nil || !ok {
		t.Fatalf("ghost acquire = %v, %v", ok, err)
	}
	defer coord.srv.ReleaseLease(held, "ghost", ghost.Token)

	job, err := r1.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	fp := job.Fingerprint()

	// Wait until runner-2 adopted its copy.
	deadline := time.After(30 * time.Second)
	var adopted *engine.Job
	for adopted == nil {
		for _, j := range r2.eng.Jobs() {
			if j.Fingerprint() == fp {
				adopted = j
			}
		}
		select {
		case <-deadline:
			t.Fatal("peer never adopted the announced sweep")
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Cancel on the owner; the cluster RPC + runner-2's watch loop must
	// kill the adopted copy too.
	if !r1.eng.Cancel(job.ID()) {
		t.Fatal("owner cancel refused")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err == nil {
		t.Fatal("canceled sweep reported success on the owner")
	}
	if c := job.Children(); len(c) == 0 || c[0].Fingerprint() != held {
		t.Fatalf("ghost-held lease %s is not the sweep's first point", held)
	}
	if _, err := adopted.Wait(ctx); err == nil {
		t.Fatal("adopted copy of a canceled sweep reported success")
	}
	if st := adopted.Snapshot(); st.State != engine.Canceled {
		t.Fatalf("adopted copy state = %v, want canceled", st.State)
	}
}

// TestCompletedSweepPublishesNoCancellation pins the terminal-switch
// ordering in the sweep coordinator: finishJob releases the parent's
// context as cleanup, so deciding "was this sweep canceled?" by
// re-reading ctx.Err() afterwards claims every completed sweep was
// canceled — publishing a cancellation record that kills peers'
// still-running copies of the same sweep. A successful sweep must
// leave the cancellation queue empty.
func TestCompletedSweepPublishesNoCancellation(t *testing.T) {
	coord := startCoordinator(t, 2)
	spec := &engine.SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle",
		Sizes: []int{16, 24}, K: 2, Trials: 50, Seed: 501,
	}
	job, err := coord.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// The (buggy) publication happened right after the parent finished;
	// give it a beat so the assertion actually guards the ordering.
	time.Sleep(300 * time.Millisecond)
	recs, err := coord.cl.Cancellations()
	if err != nil {
		t.Fatalf("cancellations: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("completed sweep published cancellation records: %+v", recs)
	}
}

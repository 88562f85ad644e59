package engine

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// clusterNode is one cluster member and its own engine. The first node
// of a test hosts the arbiter over a store; the others join that
// arbiter in-process under their own identities, as the coordinator
// and its runners share one arbiter in a real cluster.
type clusterNode struct {
	st  *store.Store
	cl  *cluster.Member
	srv *cluster.Server // the arbiter every node of the test claims through
	eng *Engine
}

var testClusterConfig = cluster.Config{LeaseTTL: 400 * time.Millisecond,
	Heartbeat: 50 * time.Millisecond, Poll: 20 * time.Millisecond}

// newClusterHost opens a store and hosts the arbiter as node id.
func newClusterHost(t *testing.T, id string, role cluster.Role, workers int) *clusterNode {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store for %s: %v", id, err)
	}
	cfg := testClusterConfig
	cfg.NodeID, cfg.Role = id, role
	cl, err := cluster.Join(st, cfg)
	if err != nil {
		t.Fatalf("join %s: %v", id, err)
	}
	return startClusterNode(t, st, cl, cluster.NewServer(st, cl), workers)
}

// join adds node id to h's arbiter, with an engine over the same store.
func (h *clusterNode) join(t *testing.T, id string, role cluster.Role, workers int) *clusterNode {
	t.Helper()
	cfg := testClusterConfig
	cfg.NodeID, cfg.Role = id, role
	cl, err := h.srv.Join(cfg)
	if err != nil {
		t.Fatalf("join %s: %v", id, err)
	}
	return startClusterNode(t, h.st, cl, h.srv, workers)
}

func startClusterNode(t *testing.T, st *store.Store, cl *cluster.Member, srv *cluster.Server, workers int) *clusterNode {
	eng := New(Options{Workers: workers, Store: st, Cluster: cl, NodeID: cl.NodeID()})
	t.Cleanup(func() {
		shutdown(t, eng)
		cl.Leave()
	})
	return &clusterNode{st: st, cl: cl, srv: srv, eng: eng}
}

// ghostClaim takes key's lease for a member that never renews and runs
// no engine, the way a stalled or dead node holds it; the returned
// release drops it.
func (h *clusterNode) ghostClaim(t *testing.T, key string, ttl time.Duration) (release func()) {
	t.Helper()
	l, ok, err := h.srv.AcquireLease(key, "ghost", ttl)
	if err != nil || !ok {
		t.Fatalf("ghost claim = %v, %v", ok, err)
	}
	return func() { _ = h.srv.ReleaseLease(key, "ghost", l.Token) }
}

// watchAdopt runs n's watch loop with adoption wired to submit, until
// the test ends.
func (n *clusterNode) watchAdopt(t *testing.T, submit func(cluster.Announcement) error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cluster.Watch(n.cl, stop, cluster.WatchHooks{
			HasResult: func(fp string) bool {
				_, ok, _ := n.st.Get(fp)
				return ok
			},
			Submit: submit,
		})
	}()
	t.Cleanup(func() { close(stop); <-done })
}

// TestClusterExactlyOnceCompute submits the identical spec to two
// engines at once: the lease must let exactly one run it while the
// other waits and then adopts the stored result.
func TestClusterExactlyOnceCompute(t *testing.T) {
	a := newClusterHost(t, "node-a", cluster.RoleCoordinator, 2)
	b := a.join(t, "node-b", cluster.RoleRunner, 2)

	var runs atomic.Int64
	release := make(chan struct{})
	mkSpec := func() *testSpec {
		return &testSpec{
			Name: "contended",
			fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
				runs.Add(1)
				select {
				case <-release:
					return &Output{Values: []float64{42}}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		}
	}

	ja, err := a.eng.Submit(mkSpec(), 0)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	jb, err := b.eng.Submit(mkSpec(), 0)
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	// Let the loser enter its lease wait before the winner finishes.
	time.Sleep(150 * time.Millisecond)
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	outA, err := ja.Wait(ctx)
	if err != nil {
		t.Fatalf("wait a: %v", err)
	}
	outB, err := jb.Wait(ctx)
	if err != nil {
		t.Fatalf("wait b: %v", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("spec ran %d times across the cluster, want exactly 1", runs.Load())
	}
	if outA.Values[0] != 42 || outB.Values[0] != 42 {
		t.Fatalf("outputs differ: %v vs %v", outA.Values, outB.Values)
	}

	ma, mb := a.eng.Metrics(), b.eng.Metrics()
	if got := ma.Computed + mb.Computed; got != 1 {
		t.Fatalf("computed totals sum to %d, want 1 (a=%d b=%d)", got, ma.Computed, mb.Computed)
	}
	if got := ma.Adopted + mb.Adopted; got != 1 {
		t.Fatalf("adopted totals sum to %d, want 1", got)
	}
	if got := ma.LeaseWaits + mb.LeaseWaits; got < 1 {
		t.Fatalf("no engine waited on the lease (a=%d b=%d)", ma.LeaseWaits, mb.LeaseWaits)
	}
	entries, err := a.cl.Journal()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1: %+v", len(entries), entries)
	}
	if st := ja.Snapshot(); st.Node != "node-a" {
		t.Fatalf("job a node = %q, want node-a", st.Node)
	}
}

// TestClusterExactlyOnceWithinOneNode pins the same-node race: two
// identical in-flight specs on ONE engine (cache cannot dedupe a job
// that has not finished) must still compute once — the member answers
// "busy" for a key it already holds, so the second worker waits and
// adopts.
func TestClusterExactlyOnceWithinOneNode(t *testing.T) {
	a := newClusterHost(t, "node-a", cluster.RoleCoordinator, 2)

	var runs atomic.Int64
	release := make(chan struct{})
	mkSpec := func() *testSpec {
		return &testSpec{
			Name: "same-node-race",
			fn: func(ctx context.Context, progress func(done, total int)) (*Output, error) {
				runs.Add(1)
				select {
				case <-release:
					return &Output{Values: []float64{7}}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		}
	}
	j1, err := a.eng.Submit(mkSpec(), 0)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := a.eng.Submit(mkSpec(), 0)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	time.Sleep(150 * time.Millisecond) // let both workers pick a job
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("identical in-flight specs ran %d times on one node, want 1", runs.Load())
	}
	if entries, _ := a.cl.Journal(); len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1: %+v", len(entries), entries)
	}
}

// TestClusterLeaseReclaim simulates a node that died mid-computation:
// a ghost holds the point's lease and never renews it, so the live
// engine must wait out the TTL, reclaim, and compute.
func TestClusterLeaseReclaim(t *testing.T) {
	a := newClusterHost(t, "node-a", cluster.RoleCoordinator, 1)
	spec := &testSpec{Name: "reclaimed", Payload: 9}
	a.ghostClaim(t, Fingerprint(spec), 300*time.Millisecond)

	start := time.Now()
	job, err := a.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if out.Values[0] != 9 {
		t.Fatalf("output = %v", out.Values)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("job finished in %v, before the ghost's lease could expire", elapsed)
	}
	if m := a.eng.Metrics(); m.Computed != 1 || m.LeaseWaits != 1 {
		t.Fatalf("metrics = computed %d, lease_waits %d; want 1, 1", m.Computed, m.LeaseWaits)
	}
}

// TestClusterSweepAdoptionDrainsAcrossNodes announces a sweep on one
// node and lets a runner's adoption loop pull it onto a second engine:
// both finish, every point is computed exactly once cluster-wide, and
// the announcement is retired.
func TestClusterSweepAdoptionDrainsAcrossNodes(t *testing.T) {
	a := newClusterHost(t, "node-a", cluster.RoleCoordinator, 2)
	b := a.join(t, "node-b", cluster.RoleRunner, 2)

	// The runner adoption loop, wired the way cobrad wires it.
	var adoptedSweep atomic.Int64
	b.watchAdopt(t, func(ann cluster.Announcement) error {
		if b.eng.HasLiveFingerprint(ann.Fingerprint) {
			return nil
		}
		spec, err := DecodeSpec(ann.Kind, ann.Spec)
		if err != nil {
			return nil
		}
		if _, err := b.eng.Submit(spec, ann.Priority); err != nil {
			return err
		}
		adoptedSweep.Add(1)
		return nil
	})

	spec := &SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle",
		Sizes: []int{8, 10, 12, 14}, K: 2, Trials: 2, Seed: 5,
	}
	// The ghost holds every point's lease until the runner has adopted
	// the sweep: a sweep that finished first would never be adopted
	// (see TestClusterFinishedSweepIsNotAdopted).
	pts, err := spec.points()
	if err != nil {
		t.Fatalf("points: %v", err)
	}
	var releases []func()
	for _, pt := range pts {
		releases = append(releases, a.ghostClaim(t, Fingerprint(pt.spec), time.Minute))
	}
	job, err := a.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}

	// The runner must adopt the announcement and finish its own copy of
	// the sweep (served from leases and the coordinator's store).
	deadline := time.After(20 * time.Second)
	for adoptedSweep.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("runner never adopted the announced sweep")
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, release := range releases {
		release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outA, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("wait sweep: %v", err)
	}
	if len(outA.Points) != 4 {
		t.Fatalf("sweep has %d points, want 4", len(outA.Points))
	}
	var sweepB *Job
	for sweepB == nil {
		for _, j := range b.eng.Jobs() {
			if j.Snapshot().Kind == "sweep" {
				sweepB = j
			}
		}
		select {
		case <-deadline:
			t.Fatal("adopted sweep never appeared in the runner's job table")
		case <-time.After(10 * time.Millisecond):
		}
	}
	outB, err := sweepB.Wait(ctx)
	if err != nil {
		t.Fatalf("wait adopted sweep: %v", err)
	}
	ja, _ := json.Marshal(outA)
	jb, _ := json.Marshal(outB)
	if string(ja) != string(jb) {
		t.Fatalf("sweep outputs differ across nodes:\n%s\n%s", ja, jb)
	}

	// Exactly-once accounting: every point computed once cluster-wide,
	// no fingerprint twice.
	entries, err := a.cl.Journal()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Key] {
			t.Fatalf("point %s computed more than once: %+v", e.Key, entries)
		}
		seen[e.Key] = true
	}
	if len(entries) != 4 {
		t.Fatalf("journal has %d entries, want 4 (one per point): %+v", len(entries), entries)
	}
	ma, mb := a.eng.Metrics(), b.eng.Metrics()
	if got := ma.Computed + mb.Computed; got != 4 {
		t.Fatalf("computed totals sum to %d, want 4 (a=%d b=%d)", got, ma.Computed, mb.Computed)
	}

	// Terminal on the origin: the announcement is retired (the runner's
	// copy may retire it first; either way it must be gone).
	for {
		anns, err := a.cl.Announcements()
		if err != nil {
			t.Fatalf("announcements: %v", err)
		}
		if len(anns) == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("announcement not retired: %+v", anns)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestClusterFinishedSweepIsNotAdopted pins the adoption skip against a
// real engine-stored aggregate: a sweep whose aggregate is already in
// the coordinator's store is retired by the runner, never submitted, even
// while its announcement is still live — the state an origin leaves
// behind when it crashes between storing the aggregate and retiring the
// announcement.
func TestClusterFinishedSweepIsNotAdopted(t *testing.T) {
	a := newClusterHost(t, "node-a", cluster.RoleCoordinator, 2)
	b := a.join(t, "node-b", cluster.RoleRunner, 2)

	spec := &SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle",
		Sizes: []int{8, 10}, K: 2, Trials: 2, Seed: 5,
	}
	if _, err := a.eng.RunSync(context.Background(), spec); err != nil {
		t.Fatalf("run sweep: %v", err)
	}
	announced := func() int {
		anns, err := a.cl.Announcements()
		if err != nil {
			t.Fatalf("announcements: %v", err)
		}
		return len(anns)
	}
	deadline := time.After(10 * time.Second)
	for announced() != 0 {
		select {
		case <-deadline:
			t.Fatal("origin never retired its finished sweep")
		case <-time.After(10 * time.Millisecond):
		}
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := a.cl.AnnounceSweep(Fingerprint(spec), spec.Kind(), data, 0); err != nil {
		t.Fatalf("re-announce: %v", err)
	}

	var submitted atomic.Int64
	b.watchAdopt(t, func(cluster.Announcement) error {
		submitted.Add(1)
		return nil
	})

	// Only the runner's finished-sweep check retires an announcement
	// here, so its retirement proves the runner scanned it.
	for announced() != 0 {
		select {
		case <-deadline:
			t.Fatal("runner never retired the finished sweep's announcement")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if n := submitted.Load(); n != 0 {
		t.Fatalf("finished sweep submitted for adoption %d times, want 0", n)
	}
}

// TestSweepResumeZeroRerun restarts the engine over a store holding a
// finished sweep: resubmission must be a pure cache hit with zero
// trials re-run.
func TestSweepResumeZeroRerun(t *testing.T) {
	dir := t.TempDir()
	spec := func() *SweepSpec {
		return &SweepSpec{
			Child: "process", Process: "cobra", Family: "cycle",
			Sizes: []int{8, 10, 12}, K: 2, Trials: 2, Seed: 7,
		}
	}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	e1 := New(Options{Workers: 2, Store: st1})
	out1, err := e1.RunSync(context.Background(), spec())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	shutdown(t, e1)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	e2 := New(Options{Workers: 2, Store: st2})
	defer shutdown(t, e2)
	job, err := e2.Submit(spec(), 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st := job.Snapshot()
	if !st.CacheHit || st.State != Done {
		t.Fatalf("resumed sweep snapshot = %+v, want immediate cache-hit done", st)
	}
	out2, err := job.Output()
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	j1, _ := json.Marshal(out1)
	j2, _ := json.Marshal(out2)
	if string(j1) != string(j2) {
		t.Fatalf("resumed output differs:\n%s\n%s", j1, j2)
	}
	if m := e2.Metrics(); m.Computed != 0 {
		t.Fatalf("restarted engine computed %d jobs, want 0", m.Computed)
	}
}

// TestSweepPartialResumeSchedulesOnlyMissing deletes the sweep
// aggregate and two point records, then resubmits: the sweep must
// serve the surviving points from the store (counted in "resumed") and
// compute only the missing ones.
func TestSweepPartialResumeSchedulesOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	spec := func() *SweepSpec {
		return &SweepSpec{
			Child: "process", Process: "cobra", Family: "cycle",
			Sizes: []int{8, 10, 12, 14}, K: 2, Trials: 2, Seed: 11,
		}
	}
	parentFP := Fingerprint(spec())

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	e1 := New(Options{Workers: 2, Store: st1})
	out1, err := e1.RunSync(context.Background(), spec())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	shutdown(t, e1)

	// Simulate a sweep whose parent died mid-way: the aggregate was
	// never stored and two of the four points are missing.
	if err := st1.Delete(parentFP); err != nil {
		t.Fatalf("delete parent: %v", err)
	}
	missing := 0
	for _, key := range st1.Keys() {
		if missing < 2 {
			if err := st1.Delete(key); err != nil {
				t.Fatalf("delete point: %v", err)
			}
			missing++
		}
	}
	if missing != 2 {
		t.Fatalf("deleted %d point records, want 2", missing)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	e2 := New(Options{Workers: 2, Store: st2})
	defer shutdown(t, e2)
	job, err := e2.Submit(spec(), 0)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out2, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	j1, _ := json.Marshal(out1)
	j2, _ := json.Marshal(out2)
	if string(j1) != string(j2) {
		t.Fatalf("resumed output differs:\n%s\n%s", j1, j2)
	}
	if st := job.Snapshot(); st.Resumed != 2 {
		t.Fatalf("resumed count = %d, want 2 (status %+v)", st.Resumed, st)
	}
	if m := e2.Metrics(); m.Computed != 2 {
		t.Fatalf("resumed engine computed %d points, want exactly the 2 missing", m.Computed)
	}
}

// TestClusterBlockedWorkerRotatesToClaimableWork pins the requeue
// behavior: with a single worker and the first job's lease held by a
// ghost peer, the second job must still complete — the worker may not
// park its only slot behind the foreign lease.
func TestClusterBlockedWorkerRotatesToClaimableWork(t *testing.T) {
	a := newClusterHost(t, "node-a", cluster.RoleCoordinator, 1)
	blocked := &testSpec{Name: "held-by-ghost", Payload: 1}
	releaseGhost := a.ghostClaim(t, Fingerprint(blocked), time.Minute)

	jBlocked, err := a.eng.Submit(blocked, 0)
	if err != nil {
		t.Fatalf("submit blocked: %v", err)
	}
	jFree, err := a.eng.Submit(&testSpec{Name: "claimable", Payload: 2}, 0)
	if err != nil {
		t.Fatalf("submit free: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if out, err := jFree.Wait(ctx); err != nil || out.Values[0] != 2 {
		t.Fatalf("claimable job behind a blocked slot: out=%v err=%v", out, err)
	}

	// Unblock: the ghost "finishes" by storing the result and releasing.
	data, _ := json.Marshal(&Output{Values: []float64{1}})
	if err := a.st.Put(Fingerprint(blocked), data); err != nil {
		t.Fatalf("ghost put: %v", err)
	}
	releaseGhost()
	if out, err := jBlocked.Wait(ctx); err != nil || out.Values[0] != 1 {
		t.Fatalf("blocked job after release: out=%v err=%v", out, err)
	}
	if m := a.eng.Metrics(); m.Computed != 1 || m.Adopted != 1 {
		t.Fatalf("metrics = computed %d adopted %d; want 1 computed (free) + 1 adopted (blocked)", m.Computed, m.Adopted)
	}
}

func TestHasLiveFingerprint(t *testing.T) {
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	release := make(chan struct{})
	spec := blockingSpec("live-fp", release)
	fp := Fingerprint(spec)
	if e.HasLiveFingerprint(fp) {
		t.Fatal("fingerprint live before submission")
	}
	job, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !e.HasLiveFingerprint(fp) {
		t.Fatal("queued/running fingerprint not reported live")
	}
	close(release)
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if e.HasLiveFingerprint(fp) {
		t.Fatal("terminal fingerprint still reported live")
	}
}

// TestClusterStatusCarriesNode pins the node identity field end to end
// through a sweep's parent and children.
func TestClusterStatusCarriesNode(t *testing.T) {
	a := newClusterHost(t, "tagged-node", cluster.RoleCoordinator, 2)
	spec := &SweepSpec{
		Child: "process", Process: "cobra", Family: "cycle",
		Sizes: []int{8, 10}, K: 2, Trials: 1, Seed: 3,
	}
	job, err := a.eng.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st := job.Snapshot(); st.Node != "tagged-node" {
		t.Fatalf("parent node = %q", st.Node)
	}
	for _, c := range job.Children() {
		if st := c.Snapshot(); st.Node != "tagged-node" {
			t.Fatalf("child node = %q", st.Node)
		}
	}
}

package cluster

import (
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

const fpA = "aaaa000000000000000000000000000000000000000000000000000000000000"
const fpB = "bbbb000000000000000000000000000000000000000000000000000000000000"

var testConfig = Config{LeaseTTL: 500 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
	Poll: 20 * time.Millisecond}

// coordinator hosts a fresh arbiter over a temp store as node-a.
func coordinator(t *testing.T) (*store.Store, *Member) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	cfg := testConfig
	cfg.NodeID, cfg.Role = "node-a", RoleCoordinator
	m, err := Join(st, cfg)
	if err != nil {
		t.Fatalf("join node-a: %v", err)
	}
	t.Cleanup(m.Leave)
	return st, m
}

// member joins id to the arbiter host hosts, in-process.
func member(t *testing.T, host *Member, id string, role Role) *Member {
	t.Helper()
	cfg := testConfig
	cfg.NodeID, cfg.Role = id, role
	m, err := (&Server{arbiter: host.host}).Join(cfg)
	if err != nil {
		t.Fatalf("join %s: %v", id, err)
	}
	t.Cleanup(m.Leave)
	return m
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if cfg.NodeID == "" || cfg.Role != RoleRunner || cfg.LeaseTTL != DefaultLeaseTTL {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Heartbeat != cfg.LeaseTTL/3 {
		t.Fatalf("heartbeat default = %v, want TTL/3", cfg.Heartbeat)
	}
	if cfg.Poll < 50*time.Millisecond || cfg.Poll > time.Second {
		t.Fatalf("poll default %v outside clamp", cfg.Poll)
	}
	for _, role := range []Role{"boss", "peer"} {
		if _, err := (Config{Role: role}).withDefaults(); err == nil {
			t.Fatalf("unknown role %q accepted", role)
		}
	}
	if !RoleRunner.Adopts() || RoleCoordinator.Adopts() {
		t.Fatal("role adoption matrix wrong")
	}
}

func TestNodeRegistryAndLiveness(t *testing.T) {
	_, a := coordinator(t)
	b := member(t, a, "node-b", RoleRunner)

	nodes, err := a.Nodes()
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if len(nodes) != 2 || nodes[0].ID != "node-a" || nodes[1].ID != "node-b" {
		t.Fatalf("nodes = %+v, want sorted [node-a node-b]", nodes)
	}
	for _, n := range nodes {
		if !n.Alive {
			t.Fatalf("node %s not alive right after join", n.ID)
		}
	}
	if nodes[0].Role != RoleCoordinator || nodes[1].Role != RoleRunner {
		t.Fatalf("roles = %s/%s", nodes[0].Role, nodes[1].Role)
	}

	// A node that leaves disappears; a node that merely stops
	// heartbeating (killed) goes stale instead.
	b.Leave()
	nodes, _ = a.Nodes()
	if len(nodes) != 1 || nodes[0].ID != "node-a" {
		t.Fatalf("after leave, nodes = %+v", nodes)
	}
}

func TestStaleNodeGoesNotAlive(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	for _, n := range []NodeInfo{
		{ID: "node-a", Heartbeat: 50 * time.Millisecond},
		{ID: "node-dead", Heartbeat: 20 * time.Millisecond},
	} {
		if err := a.RegisterNode(n); err != nil {
			t.Fatalf("register %s: %v", n.ID, err)
		}
	}
	// node-a keeps beating; node-dead was killed and never beats again.
	clk.advance(60 * time.Millisecond)
	if err := a.RegisterNode(NodeInfo{ID: "node-a", Heartbeat: 50 * time.Millisecond}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	nodes, _ := a.Nodes()
	byID := map[string]NodeInfo{}
	for _, n := range nodes {
		byID[n.ID] = n
	}
	if !byID["node-a"].Alive {
		t.Fatal("live node reported dead")
	}
	// Exactly three of its own intervals since the last beat: stale.
	if byID["node-dead"].Alive {
		t.Fatal("stale node reported alive")
	}
}

func TestHeartbeatAdvancesLastSeen(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	cfg := testConfig
	cfg.NodeID, cfg.Heartbeat = "node-a", 5*time.Millisecond
	m, err := startMember(cfg, a)
	if err != nil {
		t.Fatalf("start member: %v", err)
	}
	defer m.Leave()
	first, _ := a.Nodes()
	clk.advance(time.Second)
	// The member's heartbeat re-registers on its own ticker; LastSeen
	// must follow the arbiter's clock forward.
	deadline := time.Now().Add(10 * time.Second)
	for {
		second, _ := a.Nodes()
		if second[0].LastSeen.Equal(first[0].LastSeen.Add(time.Second)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat did not advance last_seen: %v -> %v", first[0].LastSeen, second[0].LastSeen)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAnnounceIsIdempotentAndCompletable(t *testing.T) {
	_, a := coordinator(t)
	b := member(t, a, "node-b", RoleRunner)

	spec := json.RawMessage(`{"child":"process","process":"cobra"}`)
	if err := a.AnnounceSweep(fpA, "sweep", spec, 3); err != nil {
		t.Fatalf("announce: %v", err)
	}
	// Re-announcing — from any node — must not clobber the original.
	if err := b.AnnounceSweep(fpA, "sweep", json.RawMessage(`{}`), 9); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	anns, err := b.Announcements()
	if err != nil {
		t.Fatalf("announcements: %v", err)
	}
	if len(anns) != 1 {
		t.Fatalf("got %d announcements, want 1", len(anns))
	}
	got := anns[0]
	if got.Fingerprint != fpA || got.Origin != "node-a" || got.Priority != 3 || got.Kind != "sweep" {
		t.Fatalf("announcement = %+v", got)
	}
	if string(got.Spec) != string(spec) {
		t.Fatalf("spec = %s", got.Spec)
	}

	b.CompleteSweep(fpA)
	b.CompleteSweep(fpA) // idempotent
	if anns, _ = a.Announcements(); len(anns) != 0 {
		t.Fatalf("announcements after complete = %+v", anns)
	}
}

func TestJournalRecordsExactlyWhatWasComputed(t *testing.T) {
	_, a := coordinator(t)
	b := member(t, a, "node-b", RoleRunner)

	a.RecordComputed(fpA)
	b.RecordComputed(fpB)
	entries, err := a.Journal()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(entries))
	}
	byKey := map[string]string{}
	for _, e := range entries {
		byKey[e.Key] = e.Node
	}
	if byKey[fpA] != "node-a" || byKey[fpB] != "node-b" {
		t.Fatalf("journal = %+v", entries)
	}

	// The ledger is exactly-once per key: a duplicate computation (or
	// a redelivered journal write) is a no-op and the first reporter
	// keeps the attribution.
	b.RecordComputed(fpA)
	entries, err = a.Journal()
	if err != nil {
		t.Fatalf("journal after duplicate: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal after duplicate = %d entries, want 2", len(entries))
	}
	byKey = map[string]string{}
	for _, e := range entries {
		byKey[e.Key] = e.Node
	}
	if byKey[fpA] != "node-a" {
		t.Fatalf("duplicate stole attribution: journal = %+v", entries)
	}
}

func TestLeaseWrappersBindNodeIdentity(t *testing.T) {
	_, a := coordinator(t)
	b := member(t, a, "node-b", RoleRunner)

	ok, _, err := a.Claim(fpA)
	if err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	ok, blocking, err := b.Claim(fpA)
	if err != nil || ok {
		t.Fatalf("contended claim = %v, %v", ok, err)
	}
	if blocking.Holder != "node-a" {
		t.Fatalf("blocking holder = %q", blocking.Holder)
	}
	if err := a.Renew(fpA); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := b.Renew(fpA); !errors.Is(err, ErrFenced) {
		t.Fatalf("foreign renew = %v, want ErrFenced", err)
	}
	a.Release(fpA)
	if ok, _, _ = b.Claim(fpA); !ok {
		t.Fatal("claim after release failed")
	}
}

// countingArbiter counts the acquires that reach the arbiter.
type countingArbiter struct {
	arbiterAPI
	acquires atomic.Int64
}

func (c *countingArbiter) AcquireLease(key, holder string, ttl time.Duration) (store.Lease, bool, error) {
	c.acquires.Add(1)
	return c.arbiterAPI.AcquireLease(key, holder, ttl)
}

// TestMemberSerializesItsOwnClaims pins the member half of the one
// acquire rule: the arbiter grants a holder's repeated acquire (a
// retried lost response), so a member must answer "busy" itself when a
// second local worker claims a key it holds — without asking.
func TestMemberSerializesItsOwnClaims(t *testing.T) {
	a, _ := clockedArbiter(t, t.TempDir())
	arb := &countingArbiter{arbiterAPI: a}
	cfg := testConfig
	cfg.NodeID = "node-a"
	m, err := startMember(cfg, arb)
	if err != nil {
		t.Fatalf("start member: %v", err)
	}
	defer m.Leave()

	if ok, _, err := m.Claim(fpA); !ok || err != nil {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	ok, busy, err := m.Claim(fpA)
	if ok || err != nil || busy.Holder != "node-a" {
		t.Fatalf("second local claim = %v %+v %v, want busy under node-a", ok, busy, err)
	}
	if n := arb.acquires.Load(); n != 1 {
		t.Fatalf("arbiter saw %d acquires, want 1: a held key is busy locally", n)
	}
	m.Release(fpA)

	// Sixteen workers of one node race on one key: exactly one wins.
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _, _ := m.Claim(fpB); ok {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d local workers won the same key, want 1", wins.Load())
	}
}

// stored reports whether st holds a record for fp.
func stored(st *store.Store) func(string) bool {
	return func(fp string) bool {
		_, ok, _ := st.Get(fp)
		return ok
	}
}

func TestAdoptSubmitsForeignSweepsExactlyOnce(t *testing.T) {
	st, origin := coordinator(t)
	runner := member(t, origin, "runner", RoleRunner)

	if err := origin.AnnounceSweep(fpA, "sweep", json.RawMessage(`{"a":1}`), 0); err != nil {
		t.Fatalf("announce: %v", err)
	}
	// An announcement by the runner itself must not be self-adopted.
	if err := runner.AnnounceSweep(fpB, "sweep", json.RawMessage(`{"b":2}`), 0); err != nil {
		t.Fatalf("announce own: %v", err)
	}

	var (
		mu        sync.Mutex
		submitted []string
		fullOnce  = true
	)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(runner, stop, WatchHooks{HasResult: stored(st), Submit: func(a Announcement) error {
			mu.Lock()
			defer mu.Unlock()
			if fullOnce {
				// First offer bounces (queue full): the loop must retry.
				fullOnce = false
				return errors.New("queue full")
			}
			submitted = append(submitted, a.Fingerprint)
			return nil
		}})
	}()

	deadline := time.After(3 * time.Second)
	for {
		mu.Lock()
		n := len(submitted)
		mu.Unlock()
		if n >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("adoption never submitted the foreign sweep")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Give the loop a few more scans: no re-submission, no self-adoption.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(submitted) != 1 || submitted[0] != fpA {
		t.Fatalf("submitted = %v, want exactly [%s]", submitted, fpA)
	}
}

func TestAdoptRetiresFinishedSweeps(t *testing.T) {
	st, origin := coordinator(t)
	runner := member(t, origin, "runner", RoleRunner)

	if err := origin.AnnounceSweep(fpA, "sweep", json.RawMessage(`{}`), 0); err != nil {
		t.Fatalf("announce: %v", err)
	}
	// The sweep's aggregate is already stored: adopting it would waste
	// a whole fan-out.
	if err := st.Put(fpA, []byte(`{"points":[]}`)); err != nil {
		t.Fatalf("store put: %v", err)
	}

	w := &watcher{b: runner, seen: make(map[string]bool), h: WatchHooks{HasResult: stored(st),
		Submit: func(a Announcement) error {
			t.Fatalf("finished sweep %s was offered for adoption", a.Fingerprint)
			return nil
		}}}
	w.adoptOnce()
	if anns, _ := origin.Announcements(); len(anns) != 0 {
		t.Fatalf("finished announcement not retired: %+v", anns)
	}
}

func TestAdoptReadoptsAfterRetirementAndReannounce(t *testing.T) {
	st, origin := coordinator(t)
	runner := member(t, origin, "runner", RoleRunner)

	submitted := 0
	w := &watcher{b: runner, seen: make(map[string]bool), h: WatchHooks{HasResult: stored(st),
		Submit: func(Announcement) error { submitted++; return nil }}}

	if err := origin.AnnounceSweep(fpA, "sweep", json.RawMessage(`{}`), 0); err != nil {
		t.Fatalf("announce: %v", err)
	}
	w.adoptOnce()
	w.adoptOnce()
	if submitted != 1 {
		t.Fatalf("first announcement submitted %d times, want 1", submitted)
	}

	// The sweep completes and is retired; much later (say after store
	// GC evicted its records) the origin re-announces the same
	// fingerprint. The runner must adopt it again, not remember it
	// forever.
	origin.CompleteSweep(fpA)
	w.adoptOnce() // prunes the retired fingerprint
	if err := origin.AnnounceSweep(fpA, "sweep", json.RawMessage(`{}`), 0); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	w.adoptOnce()
	if submitted != 2 {
		t.Fatalf("re-announced sweep submitted %d times total, want 2", submitted)
	}
}

// TestNodesLivenessUsesOwnersHeartbeat pins the mixed-cadence case: a
// node heartbeating slowly must be judged by its own cadence, not the
// arbiter's default.
func TestNodesLivenessUsesOwnersHeartbeat(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir()) // default heartbeat: 1s
	if err := a.RegisterNode(NodeInfo{ID: "node-slow", Heartbeat: time.Minute}); err != nil {
		t.Fatalf("register: %v", err)
	}
	clk.advance(10 * time.Second)
	nodes, err := a.Nodes()
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if len(nodes) != 1 || !nodes[0].Alive {
		t.Fatalf("slow-heartbeat node judged dead by the arbiter's faster default: %+v", nodes)
	}
	clk.advance(3 * time.Minute)
	if nodes, _ = a.Nodes(); nodes[0].Alive {
		t.Fatalf("node silent for three of its own intervals still alive: %+v", nodes)
	}
}

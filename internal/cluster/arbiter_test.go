package cluster

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

const leaseKey = "aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899"

// fakeClock is the arbiter's injected clock in tests: time moves only
// when the test says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// clockedArbiter opens an arbiter over dir on a fresh fake clock.
func clockedArbiter(t *testing.T, dir string) (*arbiter, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	return reopen(t, dir, clk), clk
}

// reopen opens the arbiter over dir on clk, closed at test end.
func reopen(t *testing.T, dir string, clk *fakeClock) *arbiter {
	t.Helper()
	a, err := openArbiter(dir, Config{LeaseTTL: time.Minute, Heartbeat: time.Second}, clk.now)
	if err != nil {
		t.Fatalf("open arbiter: %v", err)
	}
	t.Cleanup(a.close)
	return a
}

func acquire(t *testing.T, a *arbiter, key, holder string, ttl time.Duration) store.Lease {
	t.Helper()
	l, ok, err := a.AcquireLease(key, holder, ttl)
	if err != nil || !ok {
		t.Fatalf("acquire %s by %s = %v, %v; want granted", key, holder, ok, err)
	}
	return l
}

func TestLeaseAcquireReleaseReacquire(t *testing.T) {
	a, _ := clockedArbiter(t, t.TempDir())

	l := acquire(t, a, leaseKey, "node-a", time.Minute)
	if l.Holder != "node-a" || l.Key != leaseKey || l.Token < 1 {
		t.Fatalf("lease = %+v", l)
	}
	// A live lease blocks other holders and reports the current owner.
	cur, ok, err := a.AcquireLease(leaseKey, "node-b", time.Minute)
	if err != nil || ok || cur.Holder != "node-a" {
		t.Fatalf("contended acquire = %v, %v, %+v; want refused, held by node-a", ok, err, cur)
	}
	// The holder's repeated acquire is a retry of a lost response: it
	// is granted again, with the original token. (Workers of one node
	// are serialized by the member; see TestMemberSerializesItsOwnClaims.)
	if again := acquire(t, a, leaseKey, "node-a", time.Minute); again.Token != l.Token {
		t.Fatalf("re-acquire minted token %d, want the original %d", again.Token, l.Token)
	}
	if err := a.ReleaseLease(leaseKey, "node-a", l.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, found := a.Lease(leaseKey); found {
		t.Fatal("lease still present after release")
	}
	if next := acquire(t, a, leaseKey, "node-b", time.Minute); next.Token <= l.Token {
		t.Fatalf("next holder's token %d does not fence out %d", next.Token, l.Token)
	}
}

// TestLeaseReleaseByNonHolderIsNoop: a release that names the wrong
// holder leaves the lease standing (and reports ErrFenced).
func TestLeaseReleaseByNonHolderIsNoop(t *testing.T) {
	a, _ := clockedArbiter(t, t.TempDir())
	l := acquire(t, a, leaseKey, "node-a", time.Minute)
	if err := a.ReleaseLease(leaseKey, "node-b", l.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("foreign release = %v, want ErrFenced", err)
	}
	if got, found := a.Lease(leaseKey); !found || got != l {
		t.Fatalf("lease after foreign release = %+v, %v; want %+v", got, found, l)
	}
}

func TestLeaseExpiredReclaim(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	dead := acquire(t, a, leaseKey, "dead-node", 10*time.Millisecond)
	clk.advance(30 * time.Millisecond)

	l := acquire(t, a, leaseKey, "survivor", time.Minute)
	if l.Holder != "survivor" || l.Token <= dead.Token {
		t.Fatalf("reclaimed lease = %+v, want survivor with a token above %d", l, dead.Token)
	}
	// The late original holder can neither renew nor release it.
	if _, err := a.RenewLease(leaseKey, "dead-node", dead.Token, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("dead-node renew = %v, want ErrFenced", err)
	}
	if err := a.ReleaseLease(leaseKey, "dead-node", dead.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("dead-node release = %v, want ErrFenced", err)
	}
	if got, found := a.Lease(leaseKey); !found || got != l {
		t.Fatalf("lease = %+v, %v; want the survivor's %+v", got, found, l)
	}
}

func TestLeaseRenewExtendsAndGuards(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	l := acquire(t, a, leaseKey, "node-a", 200*time.Millisecond)
	clk.advance(100 * time.Millisecond)
	renewed, err := a.RenewLease(leaseKey, "node-a", l.Token, time.Minute)
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	if !renewed.ExpiresAt.Equal(clk.now().Add(time.Minute)) {
		t.Fatalf("renew expiry = %v, want now+1m", renewed.ExpiresAt)
	}
	if !renewed.AcquiredAt.Equal(l.AcquiredAt) || renewed.Token != l.Token {
		t.Fatalf("renew changed AcquiredAt or token: %+v -> %+v", l, renewed)
	}
	if _, err := a.RenewLease(leaseKey, "node-b", l.Token, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("foreign renew = %v, want ErrFenced", err)
	}
	if _, err := a.RenewLease(leaseKey, "node-a", l.Token+1, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("wrong-token renew = %v, want ErrFenced", err)
	}
}

func TestLeaseRenewAfterExpiryFails(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	l := acquire(t, a, leaseKey, "node-a", 5*time.Millisecond)
	clk.advance(20 * time.Millisecond)
	if _, err := a.RenewLease(leaseKey, "node-a", l.Token, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("expired renew = %v, want ErrFenced", err)
	}
}

// TestLeaseCorruptFileIsReclaimable: a lease record without a holder
// (a torn entry) frees its key without letting its token be minted
// again, and a state file that cannot be trusted fails the open.
func TestLeaseCorruptFileIsReclaimable(t *testing.T) {
	dir := t.TempDir()
	torn := `{"next_token":3,"leases":{"` + leaseKey + `":{"token":7,"expires_at":"2999-01-01T00:00:00Z"}}}`
	if err := os.WriteFile(filepath.Join(dir, "state.json"), []byte(torn), 0o644); err != nil {
		t.Fatalf("plant torn lease: %v", err)
	}
	a, _ := clockedArbiter(t, dir)
	if l := acquire(t, a, leaseKey, "node-a", time.Minute); l.Token <= 7 {
		t.Fatalf("token %d reissues one at or below the torn lease's 7", l.Token)
	}
	a.close()
	for _, bad := range []string{"", "{torn", `{"leases":{}}`, `{"next_token":-4}`} {
		if err := os.WriteFile(filepath.Join(dir, "state.json"), []byte(bad), 0o644); err != nil {
			t.Fatalf("plant corrupt state: %v", err)
		}
		if _, err := openArbiter(dir, Config{}, time.Now); err == nil {
			t.Fatalf("opened over corrupt state %q", bad)
		}
	}
}

// TestLeaseContention races many holders for one key: exactly one wins.
func TestLeaseContention(t *testing.T) {
	a, _ := clockedArbiter(t, t.TempDir())
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		wins []string
	)
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			holder := string(rune('a'+i)) + "-holder"
			if _, ok, err := a.AcquireLease(leaseKey, holder, time.Minute); err != nil {
				t.Errorf("acquire %d: %v", i, err)
			} else if ok {
				mu.Lock()
				wins = append(wins, holder)
				mu.Unlock()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if len(wins) != 1 {
		t.Fatalf("%d contenders acquired the lease (%v), want exactly 1", len(wins), wins)
	}
	if got, found := a.Lease(leaseKey); !found || got.Holder != wins[0] {
		t.Fatalf("final lease = %+v, %v; want held by winner %s", got, found, wins[0])
	}
}

// TestLeaseExpiredReclaimContention races many reclaimers over one
// expired lease: exactly one wins.
func TestLeaseExpiredReclaimContention(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	acquire(t, a, leaseKey, "dead-node", time.Nanosecond)
	clk.advance(time.Millisecond)

	var wg sync.WaitGroup
	var mu sync.Mutex
	wins := 0
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, ok, err := a.AcquireLease(leaseKey, string(rune('a'+i)), time.Minute)
			if err != nil {
				t.Errorf("reclaim %d: %v", i, err)
			} else if ok {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d reclaimers won the expired lease, want exactly 1", wins)
	}
	if got, found := a.Lease(leaseKey); !found || got.Holder == "dead-node" {
		t.Fatalf("final lease = %+v, %v; want a live reclaimer holding", got, found)
	}
}

// TestStaleMutationsNeverEvictNewerLease races a stale-token release,
// and a stale-token renew, against the same holder re-acquiring the
// key after its lease expired. A token check and a mutation in two
// separate steps would let the stale request land on the new lease
// (deleting it, or shortening it to the stale TTL); fenced in one
// critical section, the newer lease survives every iteration.
func TestStaleMutationsNeverEvictNewerLease(t *testing.T) {
	a, clk := clockedArbiter(t, t.TempDir())
	for _, mode := range []string{"release", "renew"} {
		for i := 0; i < 1000; i++ {
			old := acquire(t, a, leaseKey, "runner-a", time.Millisecond)
			clk.advance(1500 * time.Microsecond)
			var fresh store.Lease
			var won bool
			var err error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if mode == "release" {
					_ = a.ReleaseLease(leaseKey, "runner-a", old.Token)
				} else {
					_, _ = a.RenewLease(leaseKey, "runner-a", old.Token, time.Millisecond)
				}
			}()
			go func() {
				defer wg.Done()
				fresh, won, err = a.AcquireLease(leaseKey, "runner-a", time.Minute)
			}()
			wg.Wait()
			if err != nil || !won {
				t.Fatalf("%s iteration %d: re-acquire = %v, %v", mode, i, won, err)
			}
			cur, ok := a.Lease(leaseKey)
			if !ok || cur != fresh || cur.Expired(clk.now()) || fresh.Token <= old.Token {
				t.Fatalf("%s iteration %d: stale token %d left lease %+v (present=%v), want the newer %+v",
					mode, i, old.Token, cur, ok, fresh)
			}
			if err := a.ReleaseLease(leaseKey, "runner-a", fresh.Token); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
	}
}

// TestTokensIncreaseAcrossRestart restarts the arbiter with its clock
// stepped back an hour: tokens keep increasing (they come from the
// persisted counter, not the clock), and a lease held across the
// restart keeps its token, so its holder can still renew and release.
func TestTokensIncreaseAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a, clk := clockedArbiter(t, dir)
	held := acquire(t, a, fpA, "runner-a", time.Hour)
	var last int64
	for i := 0; i < 3; i++ {
		l := acquire(t, a, fpB, "runner-b", time.Minute)
		if l.Token <= last {
			t.Fatalf("token %d after %d", l.Token, last)
		}
		last = l.Token
		if err := a.ReleaseLease(fpB, "runner-b", l.Token); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	a.close()

	clk.advance(-time.Hour)
	a = reopen(t, dir, clk)
	if l := acquire(t, a, fpB, "runner-b", time.Minute); l.Token <= last {
		t.Fatalf("token %d after restart does not exceed %d minted before it", l.Token, last)
	}
	if _, err := a.RenewLease(fpA, "runner-a", held.Token, time.Hour); err != nil {
		t.Fatalf("renew across restart: %v", err)
	}
	if err := a.ReleaseLease(fpA, "runner-a", held.Token); err != nil {
		t.Fatalf("release across restart: %v", err)
	}
}

// TestStateRecoversFromInterruptedSave: a crash between the save's
// unlink of state.json and its rename leaves only the complete
// state.json.tmp; the next open takes it, so no token is minted twice.
func TestStateRecoversFromInterruptedSave(t *testing.T) {
	dir := t.TempDir()
	a, clk := clockedArbiter(t, dir)
	l := acquire(t, a, fpA, "runner-a", time.Hour)
	a.close()
	state := filepath.Join(dir, "state.json")
	if err := os.Rename(state, state+".tmp"); err != nil {
		t.Fatalf("simulate the interrupted save: %v", err)
	}
	a = reopen(t, dir, clk)
	if cur, ok := a.Lease(fpA); !ok || cur != l {
		t.Fatalf("lease after recovery = %+v, %v; want %+v", cur, ok, l)
	}
	if next := acquire(t, a, fpB, "runner-b", time.Hour); next.Token <= l.Token {
		t.Fatalf("token %d minted again after recovery", next.Token)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("recovered state not renamed into place: %v", err)
	}
}

// TestCancelRetentionFollowsClock: a cancellation stays visible for the
// retention window on the arbiter's clock, and pruning it persists.
func TestCancelRetentionFollowsClock(t *testing.T) {
	dir := t.TempDir()
	a, clk := clockedArbiter(t, dir)
	if err := a.Cancel("node-a", fpA); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	clk.advance(time.Minute)
	if err := a.Cancel("node-b", fpA); err != nil {
		t.Fatalf("duplicate cancel: %v", err)
	}
	recs, _ := a.Cancellations()
	if len(recs) != 1 || recs[0].Node != "node-a" || !recs[0].CanceledAt.Equal(clk.now().Add(-time.Minute)) {
		t.Fatalf("cancellations = %+v, want node-a's first cutoff", recs)
	}
	clk.advance(cancelRetention)
	if recs, _ = a.Cancellations(); len(recs) != 0 {
		t.Fatalf("cancellation past retention still visible: %+v", recs)
	}
	a.close()
	a = reopen(t, dir, clk)
	if len(a.state.Cancels) != 0 {
		t.Fatalf("pruned cancellation came back after restart: %+v", a.state.Cancels)
	}
}

// TestJournalSurvivesRestartAndTornTail: the journal is appended, not
// rewritten; a torn final line is cut at the next open.
func TestJournalSurvivesRestartAndTornTail(t *testing.T) {
	dir := t.TempDir()
	a, clk := clockedArbiter(t, dir)
	if err := a.RecordComputed(fpA, "node-a"); err != nil {
		t.Fatalf("record: %v", err)
	}
	a.close()
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"key":"` + fpB + `","no`); err != nil {
		t.Fatalf("tear journal: %v", err)
	}
	f.Close()

	a = reopen(t, dir, clk)
	if err := a.RecordComputed(fpA, "node-b"); err != nil {
		t.Fatalf("duplicate record: %v", err)
	}
	if err := a.RecordComputed(fpB, "node-b"); err != nil {
		t.Fatalf("record: %v", err)
	}
	a.close()
	a = reopen(t, dir, clk)
	entries, _ := a.Journal()
	if len(entries) != 2 || entries[0].Key != fpA || entries[0].Node != "node-a" ||
		entries[1].Key != fpB || entries[1].Node != "node-b" {
		t.Fatalf("journal = %+v, want [%s by node-a, %s by node-b]", entries, fpA, fpB)
	}
}

// TestJoinRefusesSecondOwner: one directory, one arbiter. A second
// Join meets the owner lock until the first member leaves.
func TestJoinRefusesSecondOwner(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return st
	}
	first, err := Join(open(), Config{NodeID: "a", Role: RoleCoordinator})
	if err != nil {
		t.Fatalf("first join: %v", err)
	}
	if second, err := Join(open(), Config{NodeID: "b", Role: RoleCoordinator}); err == nil {
		second.Leave()
		first.Leave()
		t.Fatal("second arbiter joined a directory that already has one")
	}
	first.Leave()
	again, err := Join(open(), Config{NodeID: "b", Role: RoleCoordinator})
	if err != nil {
		t.Fatalf("join after the owner left: %v", err)
	}
	again.Leave()
}

// FuzzDecodeState feeds arbitrary bytes to the state.json decoder Join
// runs. It must never panic, and a state it accepts must never mint a
// token at or below one a lease already carries.
func FuzzDecodeState(f *testing.F) {
	f.Add([]byte(`{"next_token":1}`))
	f.Add([]byte(`{"next_token":5,"leases":{"k1":{"key":"k1","holder":"a","token":4,"expires_at":"2026-01-01T00:00:00Z"}},` +
		`"sweeps":{"fp":{"origin":"a","kind":"sweep","spec":{}}},"cancels":{"fp":{"node":"a"}}}`))
	f.Add([]byte(`{"next_token":2,"leases":{"k":{"token":9223372036854775807,"holder":"a"}}}`))
	f.Add([]byte(`{"next_token":1,"leases":{"k":{"token":40}}}`))
	f.Add([]byte(`{"next_token":3,"leases":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeState(data)
		if err != nil {
			return
		}
		if s.Next < 1 || s.Leases == nil || s.Sweeps == nil || s.Cancels == nil {
			t.Fatalf("accepted state is unusable: %+v", s)
		}
		var top int64
		for key, l := range s.Leases {
			if l.Key != key || l.Holder == "" {
				t.Fatalf("lease %q decoded as %+v", key, l)
			}
			top = max(top, l.Token)
		}
		if s.Next <= top {
			t.Fatalf("counter %d would reissue lease token %d", s.Next, top)
		}
		// A closed arbiter fails every write: acquiring over the accepted
		// state must then leave the counter and the table untouched.
		prev, had := s.Leases["fresh-key"]
		next := s.Next
		a := &arbiter{state: s, ttl: time.Minute, now: time.Now}
		if _, ok, err := a.AcquireLease("fresh-key", "fuzz", time.Minute); err == nil || ok {
			t.Fatalf("acquire through a closed arbiter = %v, %v", ok, err)
		}
		if l, has := a.state.Leases["fresh-key"]; a.state.Next != next || has != had || l != prev {
			t.Fatalf("failed acquire changed the state: counter %d -> %d, lease %+v -> %+v",
				next, a.state.Next, prev, l)
		}
	})
}

// FuzzDecodeJournal feeds arbitrary bytes to the journal.log decoder
// Join runs. It must never panic, keep at most one record per key, and
// report a valid prefix that ends on a line boundary.
func FuzzDecodeJournal(f *testing.F) {
	rec := func(key, node string) string {
		line, _ := json.Marshal(JournalEntry{Key: key, Node: node, CompletedAt: time.Unix(1, 0).UTC()})
		return string(line) + "\n"
	}
	f.Add([]byte(rec("k1", "a") + rec("k2", "b")))
	f.Add([]byte(rec("k1", "a") + rec("k1", "b") + `{"key":"k3","no`))
	f.Add([]byte("not json\n\n" + rec("k1", "a")))
	f.Add([]byte(`{"key":""}` + "\nnull\n[]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, valid := decodeJournal(data)
		if valid < 0 || valid > len(data) || (valid > 0 && data[valid-1] != '\n') {
			t.Fatalf("valid prefix %d of %d bytes does not end a line", valid, len(data))
		}
		seen := map[string]bool{}
		for _, e := range entries {
			if e.Key == "" || seen[e.Key] {
				t.Fatalf("journal decoded an empty or repeated key: %+v", entries)
			}
			seen[e.Key] = true
		}
	})
}

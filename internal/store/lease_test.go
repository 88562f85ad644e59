package store

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

const leaseKey = "aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899"

func openLeaseStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func TestLeaseAcquireReleaseReacquire(t *testing.T) {
	s := openLeaseStore(t)

	l, ok, err := s.AcquireLease(leaseKey, "node-a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire = %v, %v; want acquired", ok, err)
	}
	if l.Holder != "node-a" || l.Key != leaseKey {
		t.Fatalf("lease = %+v", l)
	}
	if got, found := s.Lease(leaseKey); !found || got.Holder != "node-a" {
		t.Fatalf("Lease() = %+v, %v", got, found)
	}

	// A live lease blocks other holders and reports the current owner.
	cur, ok, err := s.AcquireLease(leaseKey, "node-b", time.Minute)
	if err != nil || ok {
		t.Fatalf("contended acquire = %v, %v; want not acquired", ok, err)
	}
	if cur.Holder != "node-a" {
		t.Fatalf("contended acquire reported holder %q, want node-a", cur.Holder)
	}

	// A second acquire by the SAME holder is refused too: the lease is
	// a mutex, not a counter — two workers on one node racing on one
	// fingerprint must not both win (exactly-once would break).
	if cur2, ok, err := s.AcquireLease(leaseKey, "node-a", time.Minute); err != nil || ok {
		t.Fatalf("same-holder re-acquire = %v, %v (lease %+v); want refused", ok, err, cur2)
	}

	if err := s.ReleaseLease(leaseKey, "node-a"); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, found := s.Lease(leaseKey); found {
		t.Fatal("lease still present after release")
	}
	if _, ok, err := s.AcquireLease(leaseKey, "node-b", time.Minute); err != nil || !ok {
		t.Fatalf("acquire after release = %v, %v; want acquired", ok, err)
	}
}

func TestLeaseReleaseByNonHolderIsNoop(t *testing.T) {
	s := openLeaseStore(t)
	if _, ok, _ := s.AcquireLease(leaseKey, "node-a", time.Minute); !ok {
		t.Fatal("acquire failed")
	}
	if err := s.ReleaseLease(leaseKey, "node-b"); err != nil {
		t.Fatalf("foreign release: %v", err)
	}
	if got, found := s.Lease(leaseKey); !found || got.Holder != "node-a" {
		t.Fatalf("lease after foreign release = %+v, %v; want node-a still holding", got, found)
	}
}

func TestLeaseExpiredReclaim(t *testing.T) {
	s := openLeaseStore(t)
	if _, ok, _ := s.AcquireLease(leaseKey, "dead-node", 10*time.Millisecond); !ok {
		t.Fatal("initial acquire failed")
	}
	time.Sleep(30 * time.Millisecond)

	l, ok, err := s.AcquireLease(leaseKey, "survivor", time.Minute)
	if err != nil || !ok {
		t.Fatalf("reclaim = %v, %v; want acquired", ok, err)
	}
	if l.Holder != "survivor" {
		t.Fatalf("reclaimed lease holder = %q", l.Holder)
	}

	// The late original holder can neither renew nor release the
	// reclaimed lease.
	if _, err := s.RenewLease(leaseKey, "dead-node", time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead-node renew error = %v, want ErrLeaseLost", err)
	}
	if err := s.ReleaseLease(leaseKey, "dead-node"); err != nil {
		t.Fatalf("dead-node release: %v", err)
	}
	if got, found := s.Lease(leaseKey); !found || got.Holder != "survivor" {
		t.Fatalf("lease = %+v, %v; want survivor still holding", got, found)
	}
}

func TestLeaseRenewExtendsAndGuards(t *testing.T) {
	s := openLeaseStore(t)
	l, ok, _ := s.AcquireLease(leaseKey, "node-a", 200*time.Millisecond)
	if !ok {
		t.Fatal("acquire failed")
	}
	renewed, err := s.RenewLease(leaseKey, "node-a", time.Minute)
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	if !renewed.ExpiresAt.After(l.ExpiresAt) {
		t.Fatalf("renew did not extend expiry: %v -> %v", l.ExpiresAt, renewed.ExpiresAt)
	}
	if !renewed.AcquiredAt.Equal(l.AcquiredAt) {
		t.Fatalf("renew changed AcquiredAt: %v -> %v", l.AcquiredAt, renewed.AcquiredAt)
	}
	if _, err := s.RenewLease(leaseKey, "node-b", time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign renew error = %v, want ErrLeaseLost", err)
	}
}

func TestLeaseRenewAfterExpiryFails(t *testing.T) {
	s := openLeaseStore(t)
	if _, ok, _ := s.AcquireLease(leaseKey, "node-a", 5*time.Millisecond); !ok {
		t.Fatal("acquire failed")
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := s.RenewLease(leaseKey, "node-a", time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("expired renew error = %v, want ErrLeaseLost", err)
	}
}

func TestLeaseCorruptFileIsReclaimable(t *testing.T) {
	s := openLeaseStore(t)
	if err := os.WriteFile(s.leasePath(leaseKey), []byte("{torn"), 0o644); err != nil {
		t.Fatalf("plant corrupt lease: %v", err)
	}
	l, ok, err := s.AcquireLease(leaseKey, "node-a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire over corrupt lease = %v, %v; want acquired", ok, err)
	}
	if l.Holder != "node-a" {
		t.Fatalf("holder = %q", l.Holder)
	}
}

// TestLeaseContention races many holders — through two independent
// Store instances sharing one directory, as two cobrad processes would
// — for one key and asserts exactly one wins.
func TestLeaseContention(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("open s1: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open s2: %v", err)
	}
	stores := []*Store{s1, s2}

	const contenders = 16
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		wins []string
	)
	start := make(chan struct{})
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			holder := string(rune('a'+i%26)) + "-holder"
			_, ok, err := stores[i%len(stores)].AcquireLease(leaseKey, holder, time.Minute)
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			if ok {
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
	if got, found := s1.Lease(leaseKey); !found || got.Holder != wins[0] {
		t.Fatalf("final lease = %+v, %v; want held by winner %s", got, found, wins[0])
	}
}

// TestLeaseExpiredReclaimContention races many reclaimers over one
// expired lease: the locked read-check-write must admit exactly one
// winner.
func TestLeaseExpiredReclaimContention(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("open s1: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open s2: %v", err)
	}
	if _, ok, _ := s1.AcquireLease(leaseKey, "dead-node", time.Nanosecond); !ok {
		t.Fatal("initial acquire failed")
	}
	time.Sleep(5 * time.Millisecond)

	stores := []*Store{s1, s2}
	const contenders = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		wins  int
		start = make(chan struct{})
	)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, ok, err := stores[i%len(stores)].AcquireLease(leaseKey, string(rune('a'+i)), time.Minute)
			if err != nil {
				t.Errorf("reclaim %d: %v", i, err)
				return
			}
			if ok {
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
	if got, found := s1.Lease(leaseKey); !found || got.Holder == "dead-node" {
		t.Fatalf("final lease = %+v, %v; want a live reclaimer holding", got, found)
	}
}

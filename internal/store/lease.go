package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ErrLeaseLost is returned by RenewLease when the caller no longer
// holds the lease: it expired, or another holder reclaimed it.
var ErrLeaseLost = errors.New("store: lease lost")

// Lease is one advisory claim over a key, shared by every process
// using the same store directory. A lease is held by exactly one
// holder until it expires or is released; an expired lease may be
// reclaimed by any other holder.
//
// Leases are a work-saving mechanism, not a correctness mechanism: the
// records they guard are content-addressed and deterministic, so the
// worst outcome of a lease protocol race (a holder stalled past its
// TTL while a peer reclaims) is duplicate computation of an identical
// record — never a wrong or partial result.
type Lease struct {
	// Key is the leased key, usually a spec fingerprint.
	Key string `json:"key"`
	// Holder identifies the owning node.
	Holder string `json:"holder"`
	// AcquiredAt is when the current holder first took the lease.
	AcquiredAt time.Time `json:"acquired_at"`
	// ExpiresAt is the deadline after which the lease may be reclaimed.
	ExpiresAt time.Time `json:"expires_at"`
	// Token fences this acquisition: it is minted once per acquire
	// (never per renewal) and strictly increases across successive
	// holders of the same key, because a new acquire only happens after
	// the previous lease expired or was released. A coordinator
	// arbitrating remote holders rejects renew/release requests carrying
	// a stale token, so a delayed or duplicated message from a holder
	// that already lost the lease cannot disturb the current one. The
	// token lives in the lease file, so it survives coordinator restarts.
	Token int64 `json:"token,omitempty"`
}

// Expired reports whether the lease's TTL has elapsed as of now.
func (l Lease) Expired(now time.Time) bool { return now.After(l.ExpiresAt) }

func (s *Store) leasesDir() string { return filepath.Join(s.root, "leases") }

func (s *Store) leasePath(key string) string {
	return filepath.Join(s.leasesDir(), key+".json")
}

// lockLeases serializes lease mutations across every Store over the
// directory: leaseMu orders this Store's goroutines, and an exclusive
// flock(2) on the shared lock file (where the platform has one) orders
// them against other Store instances and other processes. Under the
// lock a lease operation is a plain read-check-write.
func (s *Store) lockLeases() (unlock func(), err error) {
	s.leaseMu.Lock()
	if err := flockFile(s.leaseLock); err != nil {
		s.leaseMu.Unlock()
		return nil, fmt.Errorf("store: lock leases: %w", err)
	}
	return func() {
		funlockFile(s.leaseLock)
		s.leaseMu.Unlock()
	}, nil
}

// AcquireLease attempts to claim key for holder with the given TTL.
// On success it returns the new lease and acquired=true. If an
// unexpired lease exists — held by anyone, including this holder — it
// returns that lease and acquired=false: the lease is a mutex, not a
// counter, so a second acquire by the same node (two workers racing on
// one fingerprint) is refused rather than granted, and the loser waits
// for the stored result like any other contender. An expired (or
// unreadable) lease is reclaimed. Holders extend a live lease with
// RenewLease, never by re-acquiring.
func (s *Store) AcquireLease(key, holder string, ttl time.Duration) (Lease, bool, error) {
	if len(key) < 3 {
		return Lease{}, false, fmt.Errorf("store: lease key %q too short", key)
	}
	if holder == "" {
		return Lease{}, false, fmt.Errorf("store: lease holder required")
	}
	if ttl <= 0 {
		return Lease{}, false, fmt.Errorf("store: lease ttl must be positive")
	}
	unlock, err := s.lockLeases()
	if err != nil {
		return Lease{}, false, err
	}
	defer unlock()
	now := time.Now().UTC()
	if cur, ok := s.readLease(key); ok && !cur.Expired(now) {
		return cur, false, nil
	}
	lease := Lease{Key: key, Holder: holder, AcquiredAt: now,
		ExpiresAt: now.Add(ttl), Token: now.UnixNano()}
	if err := s.writeLease(lease); err != nil {
		return Lease{}, false, err
	}
	return lease, true, nil
}

// RenewLease extends the expiry of a lease the caller currently holds.
// It returns ErrLeaseLost when the lease is gone, held by someone
// else, or already expired — a holder that let its lease lapse must
// not resurrect it from under a reclaimer.
func (s *Store) RenewLease(key, holder string, ttl time.Duration) (Lease, error) {
	unlock, err := s.lockLeases()
	if err != nil {
		return Lease{}, err
	}
	defer unlock()
	cur, ok := s.readLease(key)
	if !ok || cur.Holder != holder {
		return Lease{}, ErrLeaseLost
	}
	now := time.Now().UTC()
	if cur.Expired(now) {
		return Lease{}, ErrLeaseLost
	}
	lease := Lease{Key: key, Holder: holder, AcquiredAt: cur.AcquiredAt,
		ExpiresAt: now.Add(ttl), Token: cur.Token}
	if err := s.writeLease(lease); err != nil {
		return Lease{}, err
	}
	return lease, nil
}

// ReleaseLease drops the caller's lease on key. Releasing a lease the
// caller does not hold is a no-op, so a holder that lost its lease to
// a reclaimer cannot delete the reclaimer's claim.
func (s *Store) ReleaseLease(key, holder string) error {
	unlock, err := s.lockLeases()
	if err != nil {
		return err
	}
	defer unlock()
	cur, ok := s.readLease(key)
	if !ok || cur.Holder != holder {
		return nil
	}
	err = os.Remove(s.leasePath(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: release lease %s: %w", key, err)
	}
	return nil
}

// Lease returns the current lease on key, if any. Unreadable lease
// files report as absent; they are reclaimable by AcquireLease.
func (s *Store) Lease(key string) (Lease, bool) {
	return s.readLease(key)
}

// readLease loads one lease record. A corrupt or truncated file (a
// crashed writer) decodes to a zero lease whose ExpiresAt is the zero
// time — i.e. long expired — so corruption degrades to a reclaimable
// lease, mirroring how corrupt result records degrade to cache misses.
func (s *Store) readLease(key string) (Lease, bool) {
	data, err := os.ReadFile(s.leasePath(key))
	if err != nil {
		return Lease{}, false
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return Lease{Key: key}, true // expired-at-zero: reclaimable
	}
	return l, true
}

// writeLease publishes a lease record atomically (temp + rename), so
// readers outside the lease lock never see a partial record.
func (s *Store) writeLease(l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("store: marshal lease %s: %w", l.Key, err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), "lease-*.tmp")
	if err != nil {
		return fmt.Errorf("store: stage lease %s: %w", l.Key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write lease %s: %w", l.Key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close lease %s: %w", l.Key, err)
	}
	if err := os.Rename(tmpName, s.leasePath(l.Key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: commit lease %s: %w", l.Key, err)
	}
	return nil
}

package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// ErrFenced is returned when a lease mutation carries a stale fencing
// token or the wrong holder: the request was issued by a holder that
// has since lost the lease. The current lease is left untouched.
var ErrFenced = errors.New("cluster: lease fenced: stale holder or token")

// ErrInvalid marks a request the arbiter refuses for its content (a
// missing key, holder, node or fingerprint): retrying cannot help.
// Every other arbiter error is a failure to persist, which may.
var ErrInvalid = errors.New("cluster: invalid request")

var errClosed = errors.New("cluster: arbiter closed")

const (
	// maxLeaseTTL caps the TTL a member may ask for.
	maxLeaseTTL = time.Hour
	// cancelRetention bounds how long a cancellation record stays
	// visible. It only needs to outlive every member's poll cadence by a
	// wide margin; the watch loop's timestamp guard (jobs submitted after
	// CanceledAt are untouched) already protects resubmissions, so
	// retention is about hygiene, not safety.
	cancelRetention = 15 * time.Minute
)

// arbiter is the cluster's single source of truth, hosted by the node
// that owns the data directory. One mutex guards everything it holds;
// every lease operation is one compare-and-swap inside it.
type arbiter struct {
	dir       string
	ttl       time.Duration // lease TTL for requests that name none
	heartbeat time.Duration // heartbeat for node records that name none
	now       func() time.Time

	mu      sync.Mutex
	lock    *os.File // owner.lock, flocked while open; nil once closed
	journal *os.File // journal.log, opened for append
	state   diskState
	nodes   map[string]NodeInfo
	entries []JournalEntry
	logged  map[string]bool
}

// diskState is the persisted part of the arbiter: state.json.
type diskState struct {
	// Next is the next fencing token to mint; every lease token is
	// below it.
	Next    int64                   `json:"next_token"`
	Leases  map[string]store.Lease  `json:"leases"`
	Sweeps  map[string]Announcement `json:"sweeps"`
	Cancels map[string]CancelRecord `json:"cancels"`
}

// openArbiter takes ownership of dir and loads the state a previous
// owner left there. A second opener meets the owner lock and fails
// until the owner closes (or its process exits).
func openArbiter(dir string, cfg Config, now func() time.Time) (*arbiter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: open arbiter: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "owner.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: open arbiter: %w", err)
	}
	a := &arbiter{dir: dir, ttl: cfg.LeaseTTL, heartbeat: cfg.Heartbeat, now: now,
		lock: lock, nodes: make(map[string]NodeInfo), logged: make(map[string]bool)}
	if err := a.load(); err != nil {
		lock.Close()
		return nil, err
	}
	return a, nil
}

func (a *arbiter) path(name string) string { return filepath.Join(a.dir, name) }

func (a *arbiter) load() error {
	if err := lockOwner(a.lock); err != nil {
		return fmt.Errorf("cluster: %s already has an arbiter (another process owns it): %w", a.dir, err)
	}
	state := a.path("state.json")
	// A crash between save's unlink and rename leaves the complete next
	// state in state.json.tmp: finish the rename.
	if _, err := os.Stat(state); os.IsNotExist(err) {
		if err := os.Rename(a.path("state.json.tmp"), state); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("cluster: recover state: %w", err)
		}
	}
	data, err := os.ReadFile(state)
	if os.IsNotExist(err) {
		data, err = []byte(`{"next_token":1}`), nil // a fresh directory
	}
	if err != nil {
		return fmt.Errorf("cluster: read state: %w", err)
	}
	if a.state, err = decodeState(data); err != nil {
		return err
	}
	data, err = os.ReadFile(a.path("journal.log"))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: read journal: %w", err)
	}
	entries, valid := decodeJournal(data)
	f, err := os.OpenFile(a.path("journal.log"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: open journal: %w", err)
	}
	// Cut a torn final append, so the next record starts a line.
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return fmt.Errorf("cluster: repair journal: %w", err)
		}
	}
	a.journal, a.entries = f, entries
	for _, e := range entries {
		a.logged[e.Key] = true
	}
	return nil
}

// close releases the owner lock. The arbiter then refuses every
// mutation, so a late request cannot overwrite what a next owner wrote.
func (a *arbiter) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lock == nil {
		return
	}
	a.journal.Close()
	a.lock.Close()
	a.lock, a.journal = nil, nil
}

// decodeState parses state.json. No corrupt input yields a state that
// could mint a token twice: a file without a positive counter is an
// error, and the counter is raised above every token a lease carries.
// A lease without a holder can be renewed or released by no one, so it
// is dropped and its key is free.
func decodeState(data []byte) (diskState, error) {
	var s diskState
	if err := json.Unmarshal(data, &s); err != nil {
		return diskState{}, fmt.Errorf("cluster: corrupt state.json: %w", err)
	}
	if s.Next < 1 {
		return diskState{}, fmt.Errorf("cluster: corrupt state.json: token counter %d", s.Next)
	}
	if s.Leases == nil {
		s.Leases = make(map[string]store.Lease)
	}
	if s.Sweeps == nil {
		s.Sweeps = make(map[string]Announcement)
	}
	if s.Cancels == nil {
		s.Cancels = make(map[string]CancelRecord)
	}
	for key, l := range s.Leases {
		if l.Token >= s.Next {
			if l.Token == math.MaxInt64 {
				return diskState{}, fmt.Errorf("cluster: corrupt state.json: lease %q token exhausts the counter", key)
			}
			s.Next = l.Token + 1
		}
		if l.Holder == "" {
			delete(s.Leases, key)
			continue
		}
		l.Key = key
		s.Leases[key] = l
	}
	for fp, an := range s.Sweeps {
		an.Fingerprint = fp
		s.Sweeps[fp] = an
	}
	for fp, r := range s.Cancels {
		r.Fingerprint = fp
		s.Cancels[fp] = r
	}
	return s, nil
}

// decodeJournal parses journal.log, one JSON record per line. A line
// that is not a record with a key is skipped, and so is a repeat of a
// key: the first reporter keeps the attribution. valid is the length
// of the prefix ending at the last newline; bytes past it are a torn
// final append.
func decodeJournal(data []byte) (entries []JournalEntry, valid int) {
	valid = bytes.LastIndexByte(data, '\n') + 1
	seen := make(map[string]bool)
	for _, line := range bytes.Split(data[:valid], []byte{'\n'}) {
		var e JournalEntry
		if json.Unmarshal(line, &e) != nil || e.Key == "" || seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		entries = append(entries, e)
	}
	return entries, valid
}

// saveLocked writes state.json: temp file plus rename, so a crash
// leaves the old state or the complete new one, never a mix. The old
// file is unlinked before the rename, so the rename creates state.json
// rather than replacing it: ext4 flushes a file renamed over another
// on the spot (auto_da_alloc), which costs about three times the rest
// of the write. A crash between the two leaves only the complete
// state.json.tmp, which load renames into place.
func (a *arbiter) saveLocked() error {
	if a.lock == nil {
		return errClosed
	}
	data, err := json.Marshal(a.state)
	if err != nil {
		return fmt.Errorf("cluster: encode state: %w", err)
	}
	tmp, state := a.path("state.json.tmp"), a.path("state.json")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("cluster: write state: %w", err)
	}
	if err := os.Remove(state); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: commit state: %w", err)
	}
	if err := os.Rename(tmp, state); err != nil {
		return fmt.Errorf("cluster: commit state: %w", err)
	}
	return nil
}

// swapLeaseLocked installs next as key's lease (nil removes it) and
// persists; a failed write puts the previous lease back.
func (a *arbiter) swapLeaseLocked(key string, next *store.Lease) error {
	prev, had := a.state.Leases[key]
	if next != nil {
		a.state.Leases[key] = *next
	} else {
		delete(a.state.Leases, key)
	}
	err := a.saveLocked()
	if err != nil {
		if had {
			a.state.Leases[key] = prev
		} else {
			delete(a.state.Leases, key)
		}
	}
	return err
}

// clampTTL bounds a requested TTL; zero selects the arbiter's own.
func (a *arbiter) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return a.ttl
	}
	return min(ttl, maxLeaseTTL)
}

// AcquireLease claims key for holder. An absent or expired lease is
// replaced by a new one under a freshly minted token. A live lease held
// by someone else is returned with acquired=false. A live lease held by
// the requester is granted again, extended, with its original token:
// the request is a retry whose first response was lost. (A member
// serializes its own workers itself, so this is the only rule every
// member needs.)
func (a *arbiter) AcquireLease(key, holder string, ttl time.Duration) (store.Lease, bool, error) {
	if key == "" || holder == "" {
		return store.Lease{}, false, fmt.Errorf("%w: a lease needs a key and a holder", ErrInvalid)
	}
	ttl = a.clampTTL(ttl)
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now().UTC()
	l, ok := a.state.Leases[key]
	live := ok && !l.Expired(now)
	if live && l.Holder != holder {
		return l, false, nil
	}
	if live {
		l.ExpiresAt = now.Add(ttl)
	} else {
		if a.state.Next == math.MaxInt64 {
			return store.Lease{}, false, fmt.Errorf("cluster: fencing tokens exhausted")
		}
		l = store.Lease{Key: key, Holder: holder, AcquiredAt: now,
			ExpiresAt: now.Add(ttl), Token: a.state.Next}
		a.state.Next++
	}
	if err := a.swapLeaseLocked(key, &l); err != nil {
		if !live {
			a.state.Next--
		}
		return store.Lease{}, false, err
	}
	return l, true, nil
}

// RenewLease extends holder's live lease on key. Holder and token must
// match the current lease; anything else — a lapsed lease, a reclaimed
// one, a stale duplicate — is ErrFenced.
func (a *arbiter) RenewLease(key, holder string, token int64, ttl time.Duration) (store.Lease, error) {
	ttl = a.clampTTL(ttl)
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now().UTC()
	l, ok := a.state.Leases[key]
	if !ok || l.Holder != holder || l.Token != token || l.Expired(now) {
		return store.Lease{}, ErrFenced
	}
	l.ExpiresAt = now.Add(ttl)
	if err := a.swapLeaseLocked(key, &l); err != nil {
		return store.Lease{}, err
	}
	return l, nil
}

// ReleaseLease drops holder's lease on key. Releasing a key with no
// lease is a no-op (a retry whose first delivery worked); a mismatched
// holder or token is ErrFenced and leaves the current lease standing.
func (a *arbiter) ReleaseLease(key, holder string, token int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.state.Leases[key]
	if !ok {
		return nil
	}
	if l.Holder != holder || l.Token != token {
		return ErrFenced
	}
	return a.swapLeaseLocked(key, nil)
}

// Lease returns the current lease on key, expired or not.
func (a *arbiter) Lease(key string) (store.Lease, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.state.Leases[key]
	return l, ok
}

// RegisterNode upserts a member's registry record. LastSeen is stamped
// with the arbiter's clock, so liveness is immune to member clock skew.
func (a *arbiter) RegisterNode(n NodeInfo) error {
	if n.ID == "" {
		return fmt.Errorf("%w: a node record needs an id", ErrInvalid)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n.LastSeen = a.now().UTC()
	if n.StartedAt.IsZero() {
		n.StartedAt = n.LastSeen
	}
	if n.Heartbeat <= 0 {
		n.Heartbeat = a.heartbeat
	}
	a.nodes[n.ID] = n
	return nil
}

// UnregisterNode removes a member's record: a graceful leave. A killed
// node never calls it; its record goes stale instead.
func (a *arbiter) UnregisterNode(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.nodes, id)
}

// Nodes returns every registered member, sorted by ID, alive when its
// last heartbeat is within three of its own intervals.
func (a *arbiter) Nodes() ([]NodeInfo, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now().UTC()
	nodes := make([]NodeInfo, 0, len(a.nodes))
	for _, n := range a.nodes {
		n.Alive = now.Sub(n.LastSeen) < 3*n.Heartbeat
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes, nil
}

// Announce publishes a sweep on behalf of origin, create-if-absent:
// re-announcing a fingerprint (from any node) is a no-op, so adoption
// cannot loop.
func (a *arbiter) Announce(origin, fp, kind string, spec json.RawMessage, priority int) error {
	if fp == "" || origin == "" {
		return fmt.Errorf("%w: an announcement needs a fingerprint and an origin", ErrInvalid)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.state.Sweeps[fp]; ok {
		return nil
	}
	a.state.Sweeps[fp] = Announcement{Fingerprint: fp, Origin: origin, Kind: kind,
		Priority: priority, Spec: spec, AnnouncedAt: a.now().UTC()}
	if err := a.saveLocked(); err != nil {
		delete(a.state.Sweeps, fp)
		return err
	}
	return nil
}

// CompleteSweep retires an announcement; idempotent.
func (a *arbiter) CompleteSweep(fp string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.state.Sweeps[fp]; ok {
		delete(a.state.Sweeps, fp)
		_ = a.saveLocked()
	}
}

// Announcements returns the published sweeps, oldest first.
func (a *arbiter) Announcements() ([]Announcement, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	anns := make([]Announcement, 0, len(a.state.Sweeps))
	for _, an := range a.state.Sweeps {
		anns = append(anns, an)
	}
	sort.Slice(anns, func(i, j int) bool {
		if !anns[i].AnnouncedAt.Equal(anns[j].AnnouncedAt) {
			return anns[i].AnnouncedAt.Before(anns[j].AnnouncedAt)
		}
		return anns[i].Fingerprint < anns[j].Fingerprint
	})
	return anns, nil
}

// Cancel publishes a cancellation for fp on behalf of node,
// create-if-absent: the first canceler's cutoff wins, so a duplicate
// cancel cannot push it forward over a sweep resubmitted since.
func (a *arbiter) Cancel(node, fp string) error {
	if fp == "" || node == "" {
		return fmt.Errorf("%w: a cancellation needs a fingerprint and a node", ErrInvalid)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.state.Cancels[fp]; ok {
		return nil
	}
	a.state.Cancels[fp] = CancelRecord{Fingerprint: fp, Node: node, CanceledAt: a.now().UTC()}
	if err := a.saveLocked(); err != nil {
		delete(a.state.Cancels, fp)
		return err
	}
	return nil
}

// Cancellations returns the live cancellation records, oldest first,
// pruning those past retention.
func (a *arbiter) Cancellations() ([]CancelRecord, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now().UTC()
	recs := make([]CancelRecord, 0, len(a.state.Cancels))
	pruned := false
	for fp, r := range a.state.Cancels {
		if now.Sub(r.CanceledAt) > cancelRetention {
			delete(a.state.Cancels, fp)
			pruned = true
			continue
		}
		recs = append(recs, r)
	}
	if pruned {
		_ = a.saveLocked() // hygiene: a failed write is retried by the next prune
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].CanceledAt.Equal(recs[j].CanceledAt) {
			return recs[i].CanceledAt.Before(recs[j].CanceledAt)
		}
		return recs[i].Fingerprint < recs[j].Fingerprint
	})
	return recs, nil
}

// RecordComputed journals that node computed key, create-if-absent per
// key: the first reporter wins the attribution and every later record —
// a retried or duplicated RPC, or a genuine duplicate computation (an
// expired lease reclaimed mid-flight) — is a no-op. The ledger is
// therefore exactly-once per key by construction. The record is one
// appended line; the journal is never rewritten.
func (a *arbiter) RecordComputed(key, node string) error {
	if key == "" || node == "" {
		return fmt.Errorf("%w: a journal record needs a key and a node", ErrInvalid)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.logged[key] {
		return nil
	}
	if a.journal == nil {
		return errClosed
	}
	e := JournalEntry{Key: key, Node: node, CompletedAt: a.now().UTC()}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("cluster: encode journal record: %w", err)
	}
	if _, err := a.journal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("cluster: append journal: %w", err)
	}
	a.logged[key] = true
	a.entries = append(a.entries, e)
	return nil
}

// Journal returns every compute record in the order it was recorded.
func (a *arbiter) Journal() ([]JournalEntry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.entries), nil
}

package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// record is the on-disk envelope around one payload.
type record struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	SHA256  string          `json:"sha256"`
	SavedAt time.Time       `json:"saved_at"`
	Payload json.RawMessage `json:"payload"`
}

const recordVersion = 1

// Limits is the store's garbage-collection policy. The zero value
// disables eviction entirely.
type Limits struct {
	// MaxBytes caps the total on-disk record bytes; when exceeded, GC
	// evicts oldest-first until the store fits. Zero disables the cap.
	MaxBytes int64
	// MaxAge bounds record age; GC evicts records saved longer ago.
	// Zero disables age eviction.
	MaxAge time.Duration
}

// Lease is one advisory claim over a key, as the cluster arbiter
// (internal/cluster) grants it: held by exactly one holder until it
// expires or is released, after which another holder may take it.
//
// Leases are a work-saving mechanism, not a correctness mechanism: the
// records they guard are content-addressed and deterministic, so the
// worst outcome of a lease race (a holder stalled past its TTL while a
// peer reclaims) is duplicate computation of an identical record —
// never a wrong or partial result.
type Lease struct {
	// Key is the leased key, usually a spec fingerprint.
	Key string `json:"key"`
	// Holder identifies the owning node.
	Holder string `json:"holder"`
	// AcquiredAt is when the current holder first took the lease.
	AcquiredAt time.Time `json:"acquired_at"`
	// ExpiresAt is the deadline after which the lease may be reclaimed.
	ExpiresAt time.Time `json:"expires_at"`
	// Token fences this acquisition: minted once per acquire (never per
	// renewal) from the arbiter's persisted counter, so it strictly
	// increases across successive holders of a key and across arbiter
	// restarts. Renew and release must present it, so a delayed or
	// duplicated message from a holder that already lost the lease
	// cannot disturb the current one.
	Token int64 `json:"token,omitempty"`
}

// Expired reports whether the lease's TTL has elapsed as of now.
func (l Lease) Expired(now time.Time) bool { return now.After(l.ExpiresAt) }

// entry is the in-memory accounting for one record: what GC needs to
// pick eviction victims without re-reading disk.
type entry struct {
	size    int64
	savedAt time.Time
}

// Store is a content-addressed record store rooted at one directory.
// All methods are safe for concurrent use, including by multiple Store
// instances sharing a directory (writes are atomic renames).
type Store struct {
	root string

	mu      sync.Mutex
	keys    map[string]entry
	limits  Limits
	evicted int64
	skipped int
}

// Open creates (if needed) and scans a store rooted at dir. The scan is
// corruption-tolerant: unreadable, truncated, or otherwise invalid
// record files are skipped — and counted in Skipped — never fatal.
// Stale temp files from crashed writers are removed.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir, keys: make(map[string]entry)}
	for _, sub := range []string{s.resultsDir(), s.tmpDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// Clear the staging area: anything left behind is a crashed write
	// that never reached its rename, so it holds no committed data.
	if leftovers, err := os.ReadDir(s.tmpDir()); err == nil {
		for _, f := range leftovers {
			_ = os.Remove(filepath.Join(s.tmpDir(), f.Name()))
		}
	}
	shards, err := os.ReadDir(s.resultsDir())
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			s.skipped++
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.resultsDir(), shard.Name()))
		if err != nil {
			s.skipped++
			continue
		}
		for _, f := range files {
			key, ok := keyFromFilename(f.Name())
			if !ok {
				s.skipped++
				continue
			}
			_, meta, err := s.load(key)
			if err != nil {
				s.skipped++
				continue
			}
			s.keys[key] = meta
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

func (s *Store) resultsDir() string { return filepath.Join(s.root, "results") }
func (s *Store) tmpDir() string     { return filepath.Join(s.root, "tmp") }

func (s *Store) path(key string) string {
	return filepath.Join(s.resultsDir(), key[:2], key+".json")
}

func keyFromFilename(name string) (string, bool) {
	key, ok := strings.CutSuffix(name, ".json")
	if !ok || len(key) < 3 {
		return "", false
	}
	if _, err := hex.DecodeString(key); err != nil {
		return "", false
	}
	return key, true
}

// load reads and validates one record from disk, returning the payload
// and the record's accounting metadata (on-disk size, save time).
func (s *Store) load(key string) ([]byte, entry, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, entry{}, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, entry{}, fmt.Errorf("store: record %s: %w", key, err)
	}
	if rec.Version != recordVersion {
		return nil, entry{}, fmt.Errorf("store: record %s: unknown version %d", key, rec.Version)
	}
	if rec.Key != key {
		return nil, entry{}, fmt.Errorf("store: record %s: embedded key %s mismatch", key, rec.Key)
	}
	if sum := payloadSum(rec.Payload); sum != rec.SHA256 {
		return nil, entry{}, fmt.Errorf("store: record %s: payload checksum mismatch", key)
	}
	return rec.Payload, entry{size: int64(len(data)), savedAt: rec.SavedAt}, nil
}

func payloadSum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// Get returns the payload stored under key. A missing or corrupt record
// reports ok=false; only environmental failures (permissions) return an
// error. A record written by another process after this store was
// opened is still found: Get falls through to disk on an unknown key.
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	if len(key) < 3 {
		return nil, false, nil
	}
	payload, meta, lerr := s.load(key)
	if lerr != nil {
		if os.IsNotExist(lerr) {
			return nil, false, nil
		}
		if os.IsPermission(lerr) {
			return nil, false, lerr
		}
		// Corrupt record: degrade to a miss so the caller recomputes.
		return nil, false, nil
	}
	s.mu.Lock()
	s.keys[key] = meta
	s.mu.Unlock()
	return payload, true, nil
}

// Put durably stores payload under key using write-to-temp + rename, so
// concurrent writers (even across processes) can never leave a partial
// record at the final path.
func (s *Store) Put(key string, payload []byte) error {
	if len(key) < 3 {
		return fmt.Errorf("store: key %q too short", key)
	}
	rec := record{
		Version: recordVersion,
		Key:     key,
		SHA256:  payloadSum(payload),
		SavedAt: time.Now().UTC(),
		Payload: json.RawMessage(payload),
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), key[:8]+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: stage record %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write record %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close record %s: %w", key, err)
	}
	final := s.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: shard for %s: %w", key, err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: commit record %s: %w", key, err)
	}
	s.mu.Lock()
	s.keys[key] = entry{size: int64(len(data)), savedAt: rec.SavedAt}
	s.mu.Unlock()
	return nil
}

// Delete removes the record stored under key, if any.
func (s *Store) Delete(key string) error {
	if len(key) < 3 {
		return nil
	}
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete record %s: %w", key, err)
	}
	s.mu.Lock()
	delete(s.keys, key)
	s.mu.Unlock()
	return nil
}

// Len returns the number of valid records known to this store instance.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// Keys returns the known record keys in unspecified order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	return out
}

// Skipped returns the number of invalid files the opening scan skipped:
// the store's corruption telemetry.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// TotalBytes returns the total on-disk size of the records known to
// this store instance.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range s.keys {
		total += e.size
	}
	return total
}

// Evicted returns the cumulative number of records removed by GC.
func (s *Store) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// SetLimits installs the GC policy applied by subsequent GC calls.
func (s *Store) SetLimits(l Limits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limits = l
}

// Limits returns the installed GC policy.
func (s *Store) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limits
}

// GC applies the installed Limits as of now: first every record older
// than MaxAge is evicted, then — if the surviving records still exceed
// MaxBytes — the oldest survivors are evicted until the store fits.
// It returns how many records were removed and how many bytes they
// held.
//
// GC never blocks writers: victims are chosen from a snapshot of the
// accounting map and removed one file at a time through Delete, which
// takes the store mutex per key. Records are content-addressed and
// immutable, so the worst race outcome — a concurrent Put re-creating
// a record GC just chose as a victim — merely deletes a byte-identical
// record that the next cache miss recomputes; no reader can ever
// observe a partial or wrong payload.
func (s *Store) GC(now time.Time) (removed int, freed int64, err error) {
	s.mu.Lock()
	limits := s.limits
	if limits.MaxBytes <= 0 && limits.MaxAge <= 0 {
		s.mu.Unlock()
		return 0, 0, nil
	}
	type victim struct {
		key string
		entry
	}
	live := make([]victim, 0, len(s.keys))
	var victims []victim
	var liveBytes int64
	for k, e := range s.keys {
		if limits.MaxAge > 0 && now.Sub(e.savedAt) > limits.MaxAge {
			victims = append(victims, victim{k, e})
			continue
		}
		live = append(live, victim{k, e})
		liveBytes += e.size
	}
	if limits.MaxBytes > 0 && liveBytes > limits.MaxBytes {
		// Oldest first; key as the tie-break keeps eviction deterministic.
		sort.Slice(live, func(a, b int) bool {
			if !live[a].savedAt.Equal(live[b].savedAt) {
				return live[a].savedAt.Before(live[b].savedAt)
			}
			return live[a].key < live[b].key
		})
		for _, v := range live {
			if liveBytes <= limits.MaxBytes {
				break
			}
			victims = append(victims, v)
			liveBytes -= v.size
		}
	}
	s.mu.Unlock()

	var firstErr error
	for _, v := range victims {
		if derr := s.Delete(v.key); derr != nil {
			if firstErr == nil {
				firstErr = derr
			}
			continue
		}
		removed++
		freed += v.size
	}
	if removed > 0 {
		s.mu.Lock()
		s.evicted += int64(removed)
		s.mu.Unlock()
	}
	return removed, freed, firstErr
}

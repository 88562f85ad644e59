package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// ErrInvalid marks input the store refuses for its content: a key that
// is not three or more lower-case hex digits, or a payload that is not
// JSON. Retrying such a request cannot succeed.
var ErrInvalid = errors.New("store: invalid input")

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

// Store is a content-addressed record store rooted at one directory:
// JSON envelopes with a payload checksum, kept in a Files tree. All
// methods are safe for concurrent use, including by multiple Store
// instances sharing a directory.
type Store struct {
	root  string
	files *Files
}

// Open creates (if needed) and scans a store rooted at dir. The scan
// decodes every record: unreadable, truncated, or otherwise invalid
// record files are skipped, and counted in Skipped, never fatal.
func Open(dir string) (*Store, error) {
	files, err := OpenFiles(filepath.Join(dir, "results"), filepath.Join(dir, "tmp"), ".json",
		func(key string, data []byte) (time.Time, error) {
			rec, err := decodeRecord(key, data)
			return rec.SavedAt, err
		})
	if err != nil {
		return nil, err
	}
	return &Store{root: dir, files: files}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// encodeRecord returns the on-disk bytes Put writes for payload: the
// envelope fields, then the payload verbatim, so a payload reads back
// byte for byte. The payload must be valid JSON; whitespace around it
// is not part of the value and is dropped.
func encodeRecord(key string, payload []byte, savedAt time.Time) ([]byte, error) {
	payload = bytes.TrimSpace(payload)
	if !json.Valid(payload) {
		return nil, fmt.Errorf("%w: record %s: payload is not valid JSON", ErrInvalid, key)
	}
	head, err := json.Marshal(record{Version: recordVersion, Key: key, SHA256: payloadSum(payload), SavedAt: savedAt})
	if err != nil {
		return nil, fmt.Errorf("store: marshal record %s: %w", key, err)
	}
	// head ends in `,"payload":null}`: keep everything before the null.
	head = head[:len(head)-len("null}")]
	data := make([]byte, 0, len(head)+len(payload)+1)
	return append(append(append(data, head...), payload...), '}'), nil
}

// decodeRecord parses and validates one record read from disk under
// key: the envelope must parse, carry the current version and key, and
// hold a non-empty payload matching its checksum. The scan and Get both
// read through it.
func decodeRecord(key string, data []byte) (record, error) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, fmt.Errorf("store: record %s: %w", key, err)
	}
	switch {
	case rec.Version != recordVersion:
		return record{}, fmt.Errorf("store: record %s: unknown version %d", key, rec.Version)
	case rec.Key != key:
		return record{}, fmt.Errorf("store: record %s: embedded key %s mismatch", key, rec.Key)
	case len(rec.Payload) == 0:
		return record{}, fmt.Errorf("store: record %s: no payload", key)
	case payloadSum(rec.Payload) != rec.SHA256:
		return record{}, fmt.Errorf("store: record %s: payload checksum mismatch", key)
	}
	return rec, nil
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
	if !validKey(key) {
		return nil, false, nil
	}
	data, err := os.ReadFile(s.files.Path(key))
	if errors.Is(err, os.ErrPermission) {
		return nil, false, err
	}
	if err != nil {
		return nil, false, nil
	}
	rec, err := decodeRecord(key, data)
	if err != nil {
		// Corrupt record: degrade to a miss so the caller recomputes.
		return nil, false, nil
	}
	s.files.track(key, int64(len(data)), rec.SavedAt)
	return rec.Payload, true, nil
}

// Put stores payload, which must be valid JSON, under key. The write is
// atomic (see Files.Write), so concurrent writers, even across
// processes, never leave a partial record at the final path.
func (s *Store) Put(key string, payload []byte) error {
	savedAt := time.Now().UTC()
	data, err := encodeRecord(key, payload, savedAt)
	if err != nil {
		return err
	}
	return s.files.Write(key, data, savedAt)
}

// Delete removes the record stored under key, if any.
func (s *Store) Delete(key string) error { return s.files.Delete(key) }

// Len returns the number of valid records known to this store instance.
func (s *Store) Len() int { return s.files.Len() }

// Keys returns the known record keys in unspecified order.
func (s *Store) Keys() []string { return s.files.Keys() }

// Skipped returns the number of invalid files the opening scan skipped:
// the store's corruption telemetry.
func (s *Store) Skipped() int { return s.files.Skipped() }

// TotalBytes returns the total on-disk size of the records known to
// this store instance.
func (s *Store) TotalBytes() int64 { return s.files.TotalBytes() }

// Evicted returns the cumulative number of records removed by GC.
func (s *Store) Evicted() int64 { return s.files.Evicted() }

// SetLimits installs the GC policy applied by subsequent GC calls.
func (s *Store) SetLimits(l Limits) { s.files.SetLimits(l) }

// Limits returns the installed GC policy.
func (s *Store) Limits() Limits { return s.files.Limits() }

// GC applies the installed Limits as of now (see Files.GC) and returns
// how many records were removed and how many bytes they held.
func (s *Store) GC(now time.Time) (removed int, freed int64, err error) {
	return s.files.GC(now, nil)
}

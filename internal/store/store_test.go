package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// key returns a deterministic well-formed store key for test index i.
func key(i int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(h[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	payload := []byte(`{"values":[1,2,3],"summary":{"mean":2}}`)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok, err := s.Get(key(1))
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %s, want %s", got, payload)
	}
	if _, ok, _ := s.Get(key(2)); ok {
		t.Error("missing key reported present")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := s1.Put(key(i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened len = %d, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok, err := s2.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("get %d after reopen: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(got) != want {
			t.Errorf("key %d payload = %s, want %s", i, got, want)
		}
	}
}

// TestCorruptRecordsAreSkippedNotFatal is the durability contract for a
// dirty data directory: truncated records, garbage bytes, checksum
// mismatches, and stray files must all degrade to cache misses while
// intact records keep being served.
func TestCorruptRecordsAreSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	good, truncated, garbage, tampered := key(0), key(1), key(2), key(3)
	for _, k := range []string{good, truncated, garbage, tampered} {
		if err := s1.Put(k, []byte(`{"v":"`+k[:8]+`"}`)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}

	// Truncate one record mid-payload, overwrite one with non-JSON
	// garbage, and flip payload bytes under an intact envelope.
	chop := func(k string, mutate func([]byte) []byte) {
		path := filepath.Join(dir, "results", k[:2], k+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", k, err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatalf("corrupt %s: %v", k, err)
		}
	}
	chop(truncated, func(b []byte) []byte { return b[:len(b)/2] })
	chop(garbage, func(b []byte) []byte { return []byte("\x00\xffnot json at all") })
	chop(tampered, func(b []byte) []byte {
		return bytes.Replace(b, []byte(`{"v":`), []byte(`{"V":`), 1)
	})
	// A stray non-record file in a shard directory.
	if err := os.WriteFile(filepath.Join(dir, "results", good[:2], "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatalf("write stray: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over corruption: %v", err)
	}
	if s2.Len() != 1 {
		t.Errorf("len = %d, want 1 (only the intact record)", s2.Len())
	}
	if s2.Skipped() != 4 {
		t.Errorf("skipped = %d, want 4", s2.Skipped())
	}
	if _, ok, err := s2.Get(good); !ok || err != nil {
		t.Errorf("intact record lost: ok=%v err=%v", ok, err)
	}
	for _, k := range []string{truncated, garbage, tampered} {
		if _, ok, err := s2.Get(k); ok || err != nil {
			t.Errorf("corrupt record %s: ok=%v err=%v, want miss without error", k[:8], ok, err)
		}
	}
	// A corrupt record is a content address: rewriting it repairs it.
	if err := s2.Put(garbage, []byte(`{"repaired":true}`)); err != nil {
		t.Fatalf("repair put: %v", err)
	}
	if got, ok, _ := s2.Get(garbage); !ok || string(got) != `{"repaired":true}` {
		t.Errorf("repaired record = %s ok=%v", got, ok)
	}
}

// TestOpenClearsStaleTempFiles: Open removes a crashed write's staging
// file (older than an hour) but leaves a fresh one alone, since it may
// be another process's write in flight on the same directory.
func TestOpenClearsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatalf("open: %v", err)
	}
	stale := filepath.Join(dir, "tmp", "deadbeef-123.tmp")
	fresh := filepath.Join(dir, "tmp", "cafef00d-456.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatalf("write temp: %v", err)
		}
	}
	crashed := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, crashed, crashed); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh staging file removed by reopen: %v", err)
	}
}

// TestConcurrentWritersLeaveNoPartialRecords hammers one store (and a
// second instance sharing the directory) from many goroutines; run under
// -race. Every read during and after the storm must see either a miss or
// a complete, checksum-valid payload — never a partial record.
func TestConcurrentWritersLeaveNoPartialRecords(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open second instance: %v", err)
	}

	const (
		writers = 8
		keys    = 16
		rounds  = 20
	)
	payload := func(i int) []byte {
		// Large enough that a torn write would be detectable.
		return []byte(fmt.Sprintf(`{"k":%d,"pad":%q}`, i, bytes.Repeat([]byte{'x'}, 4096)))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := s1
			if w%2 == 1 {
				st = s2
			}
			for r := 0; r < rounds; r++ {
				i := (w + r) % keys
				if err := st.Put(key(i), payload(i)); err != nil {
					errs <- err
					return
				}
				got, ok, err := st.Get(key(i))
				if err != nil {
					errs <- err
					return
				}
				if ok && !bytes.Equal(got, payload(i)) {
					errs <- fmt.Errorf("torn read on key %d", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A fresh scan must find every key intact and nothing skipped.
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("final open: %v", err)
	}
	if s3.Len() != keys || s3.Skipped() != 0 {
		t.Errorf("final scan: len=%d skipped=%d, want len=%d skipped=0", s3.Len(), s3.Skipped(), keys)
	}
	for i := 0; i < keys; i++ {
		got, ok, err := s3.Get(key(i))
		if err != nil || !ok || !bytes.Equal(got, payload(i)) {
			t.Errorf("key %d after storm: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(key(1), []byte(`{}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Delete(key(1)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, _ := s.Get(key(1)); ok {
		t.Error("deleted key still present")
	}
	if err := s.Delete(key(1)); err != nil {
		t.Errorf("deleting a missing key: %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("len = %d, want 0", s.Len())
	}
}

// TestPutGetEdgeInputs covers inputs the cluster's result routes can
// carry from the network: the shortest valid key and a payload that is
// valid JSON but not compact round-trip byte for byte, and keys that are
// not lower-case hex are refused by Put and missed by Get.
func TestPutGetEdgeInputs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	payload := `{"a": [1, 2], "s": "<&>"}`
	for _, k := range []string{"abc", key(1)} {
		if err := s.Put(k, []byte(payload)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		if got, ok, err := s.Get(k); !ok || err != nil || string(got) != payload {
			t.Errorf("get %q = %s ok=%v err=%v, want %s", k, got, ok, err, payload)
		}
	}
	for _, k := range []string{"ab", "ab/../../evil", "ABCDEF", "0123zz"} {
		if err := s.Put(k, []byte(`{}`)); !errors.Is(err, ErrInvalid) {
			t.Errorf("put of key %q: %v, want ErrInvalid", k, err)
		}
		if _, ok, err := s.Get(k); ok || err != nil {
			t.Errorf("get %q: ok=%v err=%v, want a miss", k, ok, err)
		}
	}
	if err := s.Put(key(2), []byte(`{"unterminated":`)); !errors.Is(err, ErrInvalid) {
		t.Errorf("put of a payload that is not JSON: %v, want ErrInvalid", err)
	}
}

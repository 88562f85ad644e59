package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Limits is a garbage-collection policy for a Files tree. The zero
// value disables eviction entirely.
type Limits struct {
	// MaxBytes caps the total on-disk bytes; when exceeded, GC evicts
	// oldest-first until the tree fits. Zero disables the cap.
	MaxBytes int64
	// MaxAge bounds file age; GC evicts files saved longer ago. Zero
	// disables age eviction.
	MaxAge time.Duration
}

// staleStaging is how old a staging file must be before OpenFiles
// removes it. A write stages for milliseconds, so an older file is a
// crashed writer's leftover; a younger one may be the in-flight write of
// another process using the same directory (a live daemon, while a
// refused second coordinator or cobractl graph opens it), which must
// reach its rename.
const staleStaging = time.Hour

// entry is the in-memory accounting for one file: what GC needs to pick
// eviction victims without re-reading disk.
type entry struct {
	size    int64
	savedAt time.Time
}

// Files is the file layer under both stores: content-addressed files at
// <dir>/<key[:2]>/<key><ext>, committed by writing to a staging
// directory and renaming into place, inventoried by one scan at open
// into a size and saved-at accounting map, and trimmed by one GC
// policy. The result store adds its JSON envelope on top;
// internal/graphstore adds its in-process graph registry. All methods
// are safe for concurrent use, including by several Files instances
// (in one process or several) sharing a directory.
type Files struct {
	dir, tmp, ext string

	mu      sync.Mutex
	entries map[string]entry
	limits  Limits
	evicted int64
	skipped int
}

// OpenFiles creates dir and the staging directory tmp if needed, removes
// staging files older than an hour, and scans dir for files named
// <key[:2]>/<key><ext>. The scan never fails on content: an entry that
// is not a shard directory, a misnamed file, or a file decode rejects is
// counted in Skipped and left out of the accounting. decode, when
// non-nil, validates each file's bytes and returns the save time they
// record; with a nil decode the scan only stats files, accounting each
// at its size and modification time, and leaves content checks to the
// reader.
func OpenFiles(dir, tmp, ext string, decode func(key string, data []byte) (time.Time, error)) (*Files, error) {
	f := &Files{dir: dir, tmp: tmp, ext: ext, entries: make(map[string]entry)}
	for _, d := range []string{dir, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", d, err)
		}
	}
	if staged, err := os.ReadDir(tmp); err == nil {
		for _, s := range staged {
			if info, err := s.Info(); err == nil && time.Since(info.ModTime()) > staleStaging {
				_ = os.Remove(filepath.Join(tmp, s.Name()))
			}
		}
	}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, shard := range shards {
		if filepath.Join(dir, shard.Name()) == tmp {
			continue
		}
		if !shard.IsDir() {
			f.skipped++
			continue
		}
		names, err := os.ReadDir(filepath.Join(dir, shard.Name()))
		if err != nil {
			f.skipped++
			continue
		}
		for _, name := range names {
			key, ok := strings.CutSuffix(name.Name(), ext)
			if !ok || !validKey(key) || key[:2] != shard.Name() {
				f.skipped++
				continue
			}
			e, err := f.account(key, name, decode)
			if err != nil {
				f.skipped++
				continue
			}
			f.entries[key] = e
		}
	}
	return f, nil
}

// account returns the scan's accounting for one well-named file.
func (f *Files) account(key string, file os.DirEntry, decode func(string, []byte) (time.Time, error)) (entry, error) {
	if decode == nil {
		info, err := file.Info()
		if err != nil {
			return entry{}, err
		}
		return entry{size: info.Size(), savedAt: info.ModTime()}, nil
	}
	data, err := os.ReadFile(f.Path(key))
	if err != nil {
		return entry{}, err
	}
	savedAt, err := decode(key, data)
	return entry{size: int64(len(data)), savedAt: savedAt}, err
}

// validKey reports whether key can name a file: at least three
// lower-case hex digits, so it shards by its first two and never holds a
// path separator. Keys arrive from the network (the cluster's result
// routes), so this is also what keeps every read and write inside the
// tree.
func validKey(key string) bool {
	if len(key) < 3 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path returns the file path for key; key must be valid.
func (f *Files) Path(key string) string {
	return filepath.Join(f.dir, key[:2], key+f.ext)
}

// Write stores data under key atomically, by writing it to a staging
// file and renaming that into place, so readers and concurrent writers,
// even in other processes, never observe a partial file. Keys are content
// addresses, so two writers of one key write identical bytes and
// last-rename-wins is harmless. savedAt is the time GC ages the file by.
func (f *Files) Write(key string, data []byte, savedAt time.Time) error {
	if !validKey(key) {
		return fmt.Errorf("%w: key %q", ErrInvalid, key)
	}
	tmp, err := os.CreateTemp(f.tmp, key[:min(len(key), 8)]+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: stage %s: %w", key, err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	final := f.Path(key)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(final), 0o755)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	f.track(key, int64(len(data)), savedAt)
	return nil
}

// track records the accounting for the file under key, including one
// another process wrote after Open, so GC sees it.
func (f *Files) track(key string, size int64, savedAt time.Time) {
	f.mu.Lock()
	f.entries[key] = entry{size: size, savedAt: savedAt}
	f.mu.Unlock()
}

// Delete removes the file stored under key, if any.
func (f *Files) Delete(key string) error {
	if !validKey(key) {
		return nil
	}
	if err := os.Remove(f.Path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	f.mu.Lock()
	delete(f.entries, key)
	f.mu.Unlock()
	return nil
}

// Len returns the number of files in the accounting.
func (f *Files) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// Keys returns the accounted keys in unspecified order.
func (f *Files) Keys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.entries))
	for k := range f.entries {
		out = append(out, k)
	}
	return out
}

// Skipped returns how many entries the opening scan skipped.
func (f *Files) Skipped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.skipped
}

// TotalBytes returns the total size of the accounted files.
func (f *Files) TotalBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for _, e := range f.entries {
		total += e.size
	}
	return total
}

// Evicted returns the cumulative number of files removed by GC.
func (f *Files) Evicted() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evicted
}

// SetLimits installs the GC policy applied by subsequent GC calls.
func (f *Files) SetLimits(l Limits) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limits = l
}

// Limits returns the installed GC policy.
func (f *Files) Limits() Limits {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.limits
}

// GC applies the installed Limits as of now: first every file older than
// MaxAge is evicted, then, if the survivors still exceed MaxBytes, the
// oldest survivors (key as the tie-break) until the tree fits. evicted,
// when non-nil, is called with each removed key. GC returns how many
// files were removed and how many bytes they held.
//
// GC never blocks writers: victims are chosen from a snapshot of the
// accounting and removed one at a time through Delete, which takes the
// mutex per key. Files are content-addressed and immutable, so the worst
// race, a concurrent Write re-creating a file GC just chose, deletes a
// byte-identical file that the next miss recomputes; no reader ever sees
// a partial one.
func (f *Files) GC(now time.Time, evicted func(key string)) (removed int, freed int64, err error) {
	f.mu.Lock()
	limits := f.limits
	if limits.MaxBytes <= 0 && limits.MaxAge <= 0 {
		f.mu.Unlock()
		return 0, 0, nil
	}
	type victim struct {
		key string
		entry
	}
	live := make([]victim, 0, len(f.entries))
	var victims []victim
	var liveBytes int64
	for k, e := range f.entries {
		if limits.MaxAge > 0 && now.Sub(e.savedAt) > limits.MaxAge {
			victims = append(victims, victim{k, e})
			continue
		}
		live = append(live, victim{k, e})
		liveBytes += e.size
	}
	if limits.MaxBytes > 0 && liveBytes > limits.MaxBytes {
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
	f.mu.Unlock()

	for _, v := range victims {
		if derr := f.Delete(v.key); derr != nil {
			if err == nil {
				err = derr
			}
			continue
		}
		if evicted != nil {
			evicted(v.key)
		}
		removed++
		freed += v.size
	}
	if removed > 0 {
		f.mu.Lock()
		f.evicted += int64(removed)
		f.mu.Unlock()
	}
	return removed, freed, err
}

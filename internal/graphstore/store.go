// Package graphstore is the content-addressed graph artifact store: it
// makes built graphs durable artifacts, keyed by the canonical
// fingerprint of (graph spec, graph seed), built exactly once per
// fingerprint per process (singleflight), serialized once per
// fingerprint per data directory (the binary format of
// internal/graph/artifact.go), and loaded back via mmap so the adjacency
// pages are shared copy-on-write across every worker in the process and
// every cobrad node sharing a data directory.
//
// The artifact files live in a store.Files tree, the same file layer as
// the result store: its staged write, open scan, limits and GC. This
// package adds the in-process registry, singleflight, mmap and artifact
// verification, and unmaps the registry entries GC evicts.
//
// Resolution tiers, cheapest first:
//
//	mem   — the fingerprint is live in the in-process registry
//	disk  — a verified artifact file was mapped (or read) back
//	build — the generator ran; the artifact is written for next time
//
// Corruption never propagates: a truncated, mangled, or
// checksum-mismatched artifact is deleted and the graph rebuilt.
package graphstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/store"
)

// Fingerprint returns the content address of one graph artifact:
// SHA-256 over the "graph" kind tag and the canonical JSON encoding of
// the spec and seed — the same fingerprint discipline as
// process.Fingerprint and engine.Fingerprint.
func Fingerprint(spec string, seed uint64) string {
	payload, err := json.Marshal(struct {
		Graph string `json:"graph"`
		Seed  uint64 `json:"seed"`
	}{spec, seed})
	if err != nil {
		panic(fmt.Sprintf("graphstore: fingerprint marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte("graph"))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Tier reports where a resolve was served from.
type Tier int

const (
	// TierBuild means the generator ran.
	TierBuild Tier = iota
	// TierMem means the graph was already live in the process registry.
	TierMem
	// TierDisk means a stored artifact was loaded (mmap or plain read).
	TierDisk
)

// String returns the metric label for the tier.
func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	default:
		return "build"
	}
}

// Options configures a Store. The zero value is a memory-only store
// building through cli.ParseGraph.
type Options struct {
	// Dir is the artifact directory (conventionally <data-dir>/graphs).
	// Empty selects a memory-only store: no artifacts are written or
	// read, only the in-process registry dedups builds.
	Dir string
	// DisableMmap forces the plain-read loading path. Artifacts load
	// byte-identically either way; mmap is only the sharing/latency
	// optimization.
	DisableMmap bool
	// Build generates a graph on a store miss; nil selects
	// cli.ParseGraph. Tests inject counting builders here.
	Build func(spec string, seed uint64) (*graph.Graph, error)
}

// entry is one live graph in the in-process registry.
type entry struct {
	fp     string
	g      *graph.Graph
	mapped []byte // non-nil when g aliases an mmap'd artifact
	refs   int
	// dropped marks an entry GC removed from the registry while still
	// referenced; the final Release unmaps it.
	dropped bool
}

// call is one in-flight build/load, awaited by concurrent resolvers of
// the same fingerprint.
type call struct {
	done chan struct{}
	err  error
}

// Store is the graph artifact store. All methods are safe for
// concurrent use, including by multiple Store instances sharing a
// directory (writes are atomic renames; loads verify checksums).
type Store struct {
	dir         string
	files       *store.Files // nil for a memory-only store
	disableMmap bool
	build       func(spec string, seed uint64) (*graph.Graph, error)

	mu       sync.Mutex
	mem      map[string]*entry
	byGraph  map[*graph.Graph]*entry
	inflight map[string]*call

	builds, memHits, diskHits int64
	mmapBytes                 int64
}

// Stats is a snapshot of the store's counters and footprint, the source
// of the graphstore_* metrics.
type Stats struct {
	Builds     int64 `json:"builds"`
	MemHits    int64 `json:"mem_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Evicted    int64 `json:"evicted"`
	MmapBytes  int64 `json:"mmap_bytes"`
	MemEntries int   `json:"mem_entries"`
	DiskFiles  int   `json:"disk_files"`
	DiskBytes  int64 `json:"disk_bytes"`
}

// Open creates (if needed) and scans a graph store. The scan only
// stats plausibly named artifact files for GC accounting; content is
// verified at load time, where a bad file costs a rebuild, never a
// crash.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:         opts.Dir,
		disableMmap: opts.DisableMmap,
		build:       opts.Build,
		mem:         make(map[string]*entry),
		byGraph:     make(map[*graph.Graph]*entry),
		inflight:    make(map[string]*call),
	}
	if s.build == nil {
		s.build = cli.ParseGraph
	}
	if s.dir != "" {
		files, err := store.OpenFiles(s.dir, filepath.Join(s.dir, "tmp"), ".g", nil)
		if err != nil {
			return nil, err
		}
		s.files = files
	}
	return s, nil
}

// Dir returns the artifact directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(fp string) string { return s.files.Path(fp) }

// Resolve returns the graph for (spec, seed), building it at most once
// per fingerprint across all concurrent callers. The caller must pair
// every successful Resolve with a Release.
func (s *Store) Resolve(spec string, seed uint64) (*graph.Graph, error) {
	g, _, err := s.ResolveTier(spec, seed)
	return g, err
}

// ResolveTier is Resolve reporting which tier served the graph.
func (s *Store) ResolveTier(spec string, seed uint64) (*graph.Graph, Tier, error) {
	fp := Fingerprint(spec, seed)
	for {
		s.mu.Lock()
		if e, ok := s.mem[fp]; ok {
			e.refs++
			s.memHits++
			s.mu.Unlock()
			return e.g, TierMem, nil
		}
		if c, ok := s.inflight[fp]; ok {
			// Another resolver is building or loading this fingerprint:
			// wait for it, then take the registry path (counted as a mem
			// hit — the wait bought exactly the shared in-process graph).
			s.mu.Unlock()
			<-c.done
			if c.err != nil {
				return nil, TierBuild, c.err
			}
			continue
		}
		c := &call{done: make(chan struct{})}
		s.inflight[fp] = c
		s.mu.Unlock()

		g, tier, err := s.populate(fp, spec, seed)
		c.err = err
		s.mu.Lock()
		delete(s.inflight, fp)
		s.mu.Unlock()
		close(c.done)
		return g, tier, err
	}
}

// populate loads fp from disk or builds it, installs the entry with the
// caller's reference, and returns the serving tier. Runs outside s.mu
// (the inflight call excludes duplicate work on fp).
func (s *Store) populate(fp, spec string, seed uint64) (*graph.Graph, Tier, error) {
	if s.dir != "" {
		if g, mapped, ok := s.loadDisk(fp); ok {
			s.install(fp, g, mapped, TierDisk)
			return g, TierDisk, nil
		}
	}
	g, err := s.build(spec, seed)
	if err != nil {
		return nil, TierBuild, err
	}
	if s.dir != "" {
		// Best-effort: a failed artifact write (disk full, permissions)
		// costs the next cold resolve a rebuild, nothing else.
		_ = s.files.Write(fp, graph.EncodeBinary(g), time.Now())
	}
	s.install(fp, g, nil, TierBuild)
	return g, TierBuild, nil
}

// loadDisk maps (or reads) and decodes one artifact. Any failure —
// missing file, mangled header, checksum mismatch, structural damage —
// removes the file and reports a miss, so the caller rebuilds.
func (s *Store) loadDisk(fp string) (*graph.Graph, []byte, bool) {
	path := s.path(fp)
	var data, mapped []byte
	if !s.disableMmap {
		if m, err := mmapFile(path); err == nil {
			mapped = m
			data = m
		}
	}
	if data == nil {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, false
		}
		data = b
	}
	g, err := decodeVerified(data)
	if err != nil {
		if mapped != nil {
			munmapFile(mapped)
		}
		_ = s.files.Delete(fp) // best-effort: the rebuild rewrites it
		return nil, nil, false
	}
	return g, mapped, true
}

// decodeVerified is the checksum-then-decode load path.
func decodeVerified(data []byte) (*graph.Graph, error) {
	if err := graph.VerifyBinary(data); err != nil {
		return nil, err
	}
	return graph.DecodeBinary(data)
}

// install registers a freshly served graph with one reference (the
// resolving caller's) and counts the serving tier.
func (s *Store) install(fp string, g *graph.Graph, mapped []byte, tier Tier) {
	e := &entry{fp: fp, g: g, mapped: mapped, refs: 1}
	s.mu.Lock()
	s.mem[fp] = e
	s.byGraph[g] = e
	if mapped != nil {
		s.mmapBytes += int64(len(mapped))
	}
	switch tier {
	case TierDisk:
		s.diskHits++
	case TierBuild:
		s.builds++
	}
	s.mu.Unlock()
}

// Release returns one reference taken by Resolve. Graphs stay resident
// after their last reference (the warm tier); GC reclaims evicted
// entries once their references drain. Releasing a graph the store does
// not track is a no-op, so callers can release unconditionally.
func (s *Store) Release(g *graph.Graph) {
	if g == nil {
		return
	}
	s.mu.Lock()
	e, ok := s.byGraph[g]
	if !ok {
		s.mu.Unlock()
		return
	}
	e.refs--
	var unmap []byte
	if e.refs <= 0 && e.dropped {
		unmap = s.forget(e)
	}
	s.mu.Unlock()
	if unmap != nil {
		munmapFile(unmap)
	}
}

// forget removes an unreferenced entry from the registry and returns its
// mapping, if any, for the caller to unmap once s.mu is released.
// Callers hold s.mu.
func (s *Store) forget(e *entry) []byte {
	delete(s.byGraph, e.g)
	s.mmapBytes -= int64(len(e.mapped))
	return e.mapped
}

// SetLimits replaces the GC policy; memory-only stores have no files
// and ignore it.
func (s *Store) SetLimits(l store.Limits) {
	if s.files != nil {
		s.files.SetLimits(l)
	}
}

// GC applies the installed limits to the artifact files as of now, with
// the file layer's policy (store.Files.GC), and drops each evicted
// fingerprint's registry entry: unreferenced graphs are unmapped
// immediately; referenced ones keep serving (an unlinked mapping stays
// valid) and unmap when their references drain. Memory-only stores have
// no files and GC is a no-op.
func (s *Store) GC(now time.Time) (removed int, freed int64) {
	if s.files == nil {
		return 0, 0
	}
	// A file GC could not remove stays accounted and is retried by the
	// next sweep; the artifact cache has nothing else to do about it.
	removed, freed, _ = s.files.GC(now, s.evict)
	return removed, freed
}

// evict drops a GC'd fingerprint from the registry, unmapping it now if
// unreferenced, else on its last Release.
func (s *Store) evict(fp string) {
	var unmap []byte
	s.mu.Lock()
	if e, ok := s.mem[fp]; ok {
		delete(s.mem, fp)
		if e.refs <= 0 {
			unmap = s.forget(e)
		} else {
			e.dropped = true
		}
	}
	s.mu.Unlock()
	if unmap != nil {
		munmapFile(unmap)
	}
}

// VerifyArtifact reads the stored artifact for (spec, seed) — never
// building one — and returns its verified payload digest.
func (s *Store) VerifyArtifact(spec string, seed uint64) (string, error) {
	if s.dir == "" {
		return "", fmt.Errorf("graphstore: memory-only store holds no artifacts")
	}
	fp := Fingerprint(spec, seed)
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		return "", fmt.Errorf("graphstore: no artifact for %q seed %d (fingerprint %.12s): %w", spec, seed, fp, err)
	}
	digest, err := graph.BinaryDigest(data)
	if err != nil {
		return "", fmt.Errorf("graphstore: artifact %.12s: %w", fp, err)
	}
	return digest, nil
}

// Skipped returns how many files the opening scan ignored as
// implausible artifact names.
func (s *Store) Skipped() int {
	if s.files == nil {
		return 0
	}
	return s.files.Skipped()
}

// Stats returns a snapshot of the counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Builds:     s.builds,
		MemHits:    s.memHits,
		DiskHits:   s.diskHits,
		MmapBytes:  s.mmapBytes,
		MemEntries: len(s.mem),
	}
	s.mu.Unlock()
	if s.files != nil {
		st.Evicted = s.files.Evicted()
		st.DiskFiles = s.files.Len()
		st.DiskBytes = s.files.TotalBytes()
	}
	return st
}

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
//	mem   — (spec, seed) is live in the in-process registry, which is
//	        keyed by the pair, so this tier hashes nothing
//	disk  — a verified artifact file was mapped (or read) back
//	build — the generator ran; the artifact is written for next time
//
// The registry holds every graph a job references, and keeps graphs no
// job references (idle graphs) up to a fixed byte budget of 64 MiB,
// evicting the least recently released beyond it. An evicted graph
// comes back through the disk or build tier, byte-identical, so the
// budget trades a reload for memory that tracks live work.
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

// idleBudget is the byte budget for idle graphs, those no Resolve
// holds a reference to. It is fixed: the graphs a sweep reuses fit in
// it many times over, and past it a reload from disk costs less than
// the memory a long-running daemon would otherwise keep.
const idleBudget = 64 << 20

// key is a registry key: the (spec, seed) pair a fingerprint hashes.
// Keying the registry on the pair itself keeps the hash off the warm
// path; a resolve computes the fingerprint only on a registry miss.
type key struct {
	spec string
	seed uint64
}

// entry is one live graph in the in-process registry.
type entry struct {
	key    key
	fp     string
	g      *graph.Graph
	mapped []byte // non-nil when g aliases an mmap'd artifact
	refs   int
	// dropped marks an entry GC removed from the registry while still
	// referenced; the final Release unmaps it.
	dropped bool
	// prev and next link the entry into Store.idle while no reference
	// is held (both nil otherwise), and size is its bytes as counted in
	// Store.idleBytes.
	prev, next *entry
	size       int64
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
	mem      map[key]*entry
	byGraph  map[*graph.Graph]*entry
	inflight map[key]*call

	// idle is the sentinel of a ring of the unreferenced entries of mem:
	// idle.next is the most recently released, idle.prev the oldest.
	// The ring is intrusive, so a release allocates nothing. idleBytes
	// is their total size, kept within idleBudget (the package
	// constant, which tests shrink).
	idle       entry
	idleBytes  int64
	idleBudget int64

	builds, memHits, diskHits int64
	memEvicted                int64
	mmapBytes                 int64
}

// Stats is a snapshot of the store's counters and footprint, the source
// of the graphstore_* metrics.
type Stats struct {
	Builds   int64 `json:"builds"`
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	// Evicted counts artifact files GC removed; MemEvicted counts idle
	// graphs the registry dropped to stay within its byte budget.
	Evicted    int64 `json:"evicted"`
	MemEvicted int64 `json:"mem_evicted"`
	MmapBytes  int64 `json:"mmap_bytes"`
	// IdleBytes is the size of the resident graphs no job holds.
	IdleBytes  int64 `json:"idle_bytes"`
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
		mem:         make(map[key]*entry),
		byGraph:     make(map[*graph.Graph]*entry),
		inflight:    make(map[key]*call),
		idleBudget:  idleBudget,
	}
	s.idle.prev, s.idle.next = &s.idle, &s.idle
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
// every successful Resolve with a Release. A resolve the registry
// serves neither hashes nor allocates.
func (s *Store) Resolve(spec string, seed uint64) (*graph.Graph, error) {
	g, _, err := s.ResolveTier(spec, seed)
	return g, err
}

// ResolveTier is Resolve reporting which tier served the graph.
func (s *Store) ResolveTier(spec string, seed uint64) (*graph.Graph, Tier, error) {
	k := key{spec, seed}
	for {
		s.mu.Lock()
		if e, ok := s.mem[k]; ok {
			s.unidle(e)
			e.refs++
			s.memHits++
			s.mu.Unlock()
			return e.g, TierMem, nil
		}
		if c, ok := s.inflight[k]; ok {
			// Another resolver is building or loading this graph:
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
		s.inflight[k] = c
		s.mu.Unlock()

		g, tier, err := s.populate(k)
		c.err = err
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(c.done)
		return g, tier, err
	}
}

// populate loads k's artifact from disk or builds it, installs the
// entry with the caller's reference, and returns the serving tier. Runs
// outside s.mu (the inflight call excludes duplicate work on k).
func (s *Store) populate(k key) (*graph.Graph, Tier, error) {
	fp := Fingerprint(k.spec, k.seed)
	if s.dir != "" {
		if g, mapped, ok := s.loadDisk(fp); ok {
			s.install(k, fp, g, mapped, TierDisk)
			return g, TierDisk, nil
		}
	}
	g, err := s.build(k.spec, k.seed)
	if err != nil {
		return nil, TierBuild, err
	}
	if s.dir != "" {
		// Best-effort: a failed artifact write (disk full, permissions)
		// costs the next cold resolve a rebuild, nothing else.
		_ = s.files.Write(fp, graph.EncodeBinary(g), time.Now())
	}
	s.install(k, fp, g, nil, TierBuild)
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
func (s *Store) install(k key, fp string, g *graph.Graph, mapped []byte, tier Tier) {
	e := &entry{key: k, fp: fp, g: g, mapped: mapped, refs: 1}
	s.mu.Lock()
	s.mem[k] = e
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

// Release returns one reference taken by Resolve. A graph whose last
// reference drains stays resident as an idle graph (the mem tier) while
// the idle graphs fit in the store's byte budget; beyond it the least
// recently released idle graphs are evicted, never the one just
// released, so back-to-back jobs on one graph larger than the budget do
// not reload it. GC reclaims evicted files' entries once their
// references drain. Releasing a graph the store does not track, or one
// with no reference outstanding, is a no-op, so callers can release
// unconditionally.
func (s *Store) Release(g *graph.Graph) {
	if g == nil {
		return
	}
	s.mu.Lock()
	e, ok := s.byGraph[g]
	if !ok || e.refs <= 0 {
		s.mu.Unlock()
		return
	}
	e.refs--
	var unmap [][]byte
	switch {
	case e.refs > 0:
	case e.dropped:
		unmap = [][]byte{s.forget(e)}
	default:
		unmap = s.park(e)
	}
	s.mu.Unlock()
	for _, m := range unmap {
		if m != nil {
			munmapFile(m)
		}
	}
}

// park puts a just-released entry at the recent end of the idle ring,
// sized by its graph's arrays (or its mapping, if larger), then evicts
// from the old end while the idle bytes exceed the budget, stopping at
// e itself. Each entry joins the ring once per release and leaves it
// once, so eviction is O(1) amortized. It returns the evicted entries'
// mappings (nil for unmapped ones) for the caller to unmap once s.mu is
// released. Callers hold s.mu.
func (s *Store) park(e *entry) (unmap [][]byte) {
	e.size = max(e.g.Bytes(), int64(len(e.mapped)))
	e.prev, e.next = &s.idle, s.idle.next
	e.prev.next, e.next.prev = e, e
	s.idleBytes += e.size
	for s.idleBytes > s.idleBudget {
		old := s.idle.prev
		if old == e {
			break
		}
		s.unidle(old)
		delete(s.mem, old.key)
		unmap = append(unmap, s.forget(old))
		s.memEvicted++
	}
	return unmap
}

// unidle takes e off the idle ring, if it is there. Callers hold s.mu.
func (s *Store) unidle(e *entry) {
	if e.next == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	s.idleBytes -= e.size
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
// idle, else on its last Release (a dropped entry never goes idle). The
// registry is keyed by (spec, seed), so the entry is found by scanning
// for its fingerprint: GC evictions are rare, and the registry holds
// only the graphs jobs hold plus the idle budget's worth.
func (s *Store) evict(fp string) {
	var unmap []byte
	s.mu.Lock()
	for k, e := range s.mem {
		if e.fp != fp {
			continue
		}
		delete(s.mem, k)
		if e.refs <= 0 {
			s.unidle(e)
			unmap = s.forget(e)
		} else {
			e.dropped = true
		}
		break
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
		MemEvicted: s.memEvicted,
		MmapBytes:  s.mmapBytes,
		IdleBytes:  s.idleBytes,
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

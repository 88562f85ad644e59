package graphstore

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// countingBuild wraps the default builder with an atomic build counter.
func countingBuild(n *atomic.Int64) func(spec string, seed uint64) (*graph.Graph, error) {
	return func(spec string, seed uint64) (*graph.Graph, error) {
		n.Add(1)
		return defaultBuildForTest(spec, seed)
	}
}

// defaultBuildForTest builds without a store, mirroring cli.ParseGraph
// via the package default.
var defaultBuildForTest = directBuilder{}.Resolve

func open(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustResolveTier(t *testing.T, s *Store, spec string, seed uint64) (*graph.Graph, Tier) {
	t.Helper()
	g, tier, err := s.ResolveTier(spec, seed)
	if err != nil {
		t.Fatalf("resolve %q seed %d: %v", spec, seed, err)
	}
	return g, tier
}

func TestFingerprintStability(t *testing.T) {
	// Pinned: changing the graph fingerprint scheme silently invalidates
	// every stored artifact, so it must be deliberate.
	const want = "8670171103519a3e8eac0aba525cc95082f63554699ab2ac37703e3da6cc4fbb"
	if got := Fingerprint("regular:4096,5", 1); got != want {
		t.Fatalf("Fingerprint(regular:4096,5, 1) = %s, want %s", got, want)
	}
	if Fingerprint("regular:4096,5", 1) == Fingerprint("regular:4096,5", 2) {
		t.Fatal("seed does not perturb the fingerprint")
	}
	if Fingerprint("grid:2,16", 0) == Fingerprint("grid:2,17", 0) {
		t.Fatal("spec does not perturb the fingerprint")
	}
}

func TestResolveTiers(t *testing.T) {
	var builds atomic.Int64
	dir := t.TempDir()
	s := open(t, Options{Dir: dir, Build: countingBuild(&builds)})

	g1, tier := mustResolveTier(t, s, "cycle:64", 0)
	if tier != TierBuild {
		t.Fatalf("first resolve tier = %v, want build", tier)
	}
	g2, tier := mustResolveTier(t, s, "cycle:64", 0)
	if tier != TierMem {
		t.Fatalf("second resolve tier = %v, want mem", tier)
	}
	if g1 != g2 {
		t.Fatal("mem tier returned a different graph instance")
	}
	s.Release(g1)
	s.Release(g2)
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}

	// A second store over the same directory serves from disk without
	// building — the shared-data-dir cluster property.
	var builds2 atomic.Int64
	s2 := open(t, Options{Dir: dir, Build: countingBuild(&builds2)})
	g3, tier := mustResolveTier(t, s2, "cycle:64", 0)
	if tier != TierDisk {
		t.Fatalf("fresh store resolve tier = %v, want disk", tier)
	}
	if builds2.Load() != 0 {
		t.Fatalf("fresh store built %d graphs, want 0", builds2.Load())
	}
	if g3.N() != g1.N() || g3.M() != g1.M() || g3.Name() != g1.Name() {
		t.Fatalf("disk graph mismatch: %s vs %s", g3, g1)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 builds", st)
	}
	s2.Release(g3)
}

func TestSingleflight(t *testing.T) {
	var builds atomic.Int64
	s := open(t, Options{Build: countingBuild(&builds)})

	const K = 32
	var wg sync.WaitGroup
	graphs := make([]*graph.Graph, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Resolve("regular:512,5", 7)
			if err != nil {
				t.Error(err)
				return
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d concurrent resolves ran %d builds, want exactly 1", K, builds.Load())
	}
	for i := 1; i < K; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent resolvers did not share one graph instance")
		}
	}
	for _, g := range graphs {
		s.Release(g)
	}
}

// TestConcurrentWriters hammers two stores sharing a directory from
// many goroutines; under -race this checks the atomic temp+rename
// write convention and the registry locking.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	a := open(t, Options{Dir: dir})
	b := open(t, Options{Dir: dir})

	specs := []string{"cycle:48", "grid:2,7", "star:33", "regular:128,4"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		for _, s := range []*Store{a, b} {
			wg.Add(1)
			go func(s *Store, w int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					spec := specs[(w+i)%len(specs)]
					g, err := s.Resolve(spec, uint64(i%2))
					if err != nil {
						t.Errorf("resolve %s: %v", spec, err)
						return
					}
					if g.N() == 0 {
						t.Errorf("resolve %s: empty graph", spec)
					}
					s.Release(g)
				}
			}(s, w)
		}
	}
	wg.Wait()
	// Both stores together must have built each (spec, seed) at most
	// once per process (singleflight) — and disk sharing usually makes
	// it once overall per fingerprint for whoever lost the race.
	sa, sb := a.Stats(), b.Stats()
	if sa.Builds > int64(len(specs)*2) || sb.Builds > int64(len(specs)*2) {
		t.Fatalf("too many builds: a=%d b=%d", sa.Builds, sb.Builds)
	}
}

func TestCorruptionTolerance(t *testing.T) {
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"bad magic": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			copy(data[0:4], "NOPE")
			return os.WriteFile(path, data, 0o644)
		},
		"checksum mismatch": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0xFF
			return os.WriteFile(path, data, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			var builds atomic.Int64
			dir := t.TempDir()
			s := open(t, Options{Dir: dir, Build: countingBuild(&builds)})
			g, _ := mustResolveTier(t, s, "grid:2,6", 0)
			s.Release(g)

			path := s.path(Fingerprint("grid:2,6", 0))
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			// A fresh store must detect the damage, rebuild, and remove
			// the bad file — never crash, never serve garbage.
			var rebuilds atomic.Int64
			s2 := open(t, Options{Dir: dir, Build: countingBuild(&rebuilds)})
			g2, tier := mustResolveTier(t, s2, "grid:2,6", 0)
			if tier != TierBuild || rebuilds.Load() != 1 {
				t.Fatalf("corrupt artifact served from tier %v (%d rebuilds), want a rebuild", tier, rebuilds.Load())
			}
			if g2.N() != g.N() || g2.M() != g.M() {
				t.Fatalf("rebuilt graph mismatch: %s vs %s", g2, g)
			}
			s2.Release(g2)
			// The rebuild rewrote a good artifact; the next fresh store
			// loads it from disk.
			s3 := open(t, Options{Dir: dir})
			g3, tier := mustResolveTier(t, s3, "grid:2,6", 0)
			if tier != TierDisk {
				t.Fatalf("post-rebuild resolve tier = %v, want disk", tier)
			}
			s3.Release(g3)
		})
	}
}

// TestMmapReadFallbackEquality pins that the mmap path and the
// plain-read path decode byte-identical graphs.
func TestMmapReadFallbackEquality(t *testing.T) {
	dir := t.TempDir()
	seedStore := open(t, Options{Dir: dir})
	g0, _ := mustResolveTier(t, seedStore, "powerlaw:400,2.5", 3)
	seedStore.Release(g0)

	mm := open(t, Options{Dir: dir})
	rd := open(t, Options{Dir: dir, DisableMmap: true})
	ga, tierA := mustResolveTier(t, mm, "powerlaw:400,2.5", 3)
	gb, tierB := mustResolveTier(t, rd, "powerlaw:400,2.5", 3)
	if tierA != TierDisk || tierB != TierDisk {
		t.Fatalf("tiers = %v/%v, want disk/disk", tierA, tierB)
	}
	if ga.Name() != gb.Name() || ga.N() != gb.N() || ga.M() != gb.M() {
		t.Fatalf("graph headers differ: %s vs %s", ga, gb)
	}
	ao, bo := ga.Offsets(), gb.Offsets()
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("offsets[%d]: %d != %d", i, ao[i], bo[i])
		}
	}
	aa, ba := ga.Adj(), gb.Adj()
	for i := range aa {
		if aa[i] != ba[i] {
			t.Fatalf("adj[%d]: %d != %d", i, aa[i], ba[i])
		}
	}
	if mm.Stats().MmapBytes == 0 {
		t.Fatal("mmap store reports zero mapped bytes")
	}
	if rd.Stats().MmapBytes != 0 {
		t.Fatal("read-fallback store reports mapped bytes")
	}
	mm.Release(ga)
	rd.Release(gb)
}

func TestGCEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})

	specs := []string{"cycle:32", "cycle:48", "cycle:64"}
	var sizes []int64
	for i, spec := range specs {
		g, _ := mustResolveTier(t, s, spec, 0)
		s.Release(g)
		fp := Fingerprint(spec, 0)
		fi, err := os.Stat(s.path(fp))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
		// Stamp distinct mtimes so eviction order is age, oldest first.
		when := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.path(fp), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Re-scan so the accounting sees the stamped times.
	s = open(t, Options{Dir: dir})
	total := sizes[0] + sizes[1] + sizes[2]

	// Cap to fit only the newest two: the oldest (cycle:32) must go.
	s.SetLimits(store.Limits{MaxBytes: total - sizes[0]})
	removed, freed := s.GC(time.Now())
	if removed != 1 || freed != sizes[0] {
		t.Fatalf("GC removed %d (%d bytes), want 1 (%d bytes)", removed, freed, sizes[0])
	}
	if _, err := os.Stat(s.path(Fingerprint("cycle:32", 0))); !os.IsNotExist(err) {
		t.Fatal("oldest artifact not evicted")
	}
	for _, spec := range specs[1:] {
		if _, err := os.Stat(s.path(Fingerprint(spec, 0))); err != nil {
			t.Fatalf("newer artifact %s evicted: %v", spec, err)
		}
	}

	// Age eviction takes the next oldest regardless of the byte budget.
	s.SetLimits(store.Limits{MaxAge: 8*time.Hour + 30*time.Minute})
	removed, _ = s.GC(time.Now())
	if removed != 1 {
		t.Fatalf("age GC removed %d, want 1", removed)
	}
	if _, err := os.Stat(s.path(Fingerprint("cycle:48", 0))); !os.IsNotExist(err) {
		t.Fatal("aged artifact not evicted")
	}
	if s.Stats().Evicted != 2 {
		t.Fatalf("evicted counter = %d, want 2", s.Stats().Evicted)
	}
}

// TestGCKeepsReferencedMapping pins the failure model for eviction
// under load: a mapped, referenced graph keeps working after its file
// is GC'd, and the mapping is released once the references drain.
func TestGCKeepsReferencedMapping(t *testing.T) {
	dir := t.TempDir()
	seed := open(t, Options{Dir: dir})
	g0, _ := mustResolveTier(t, seed, "cycle:100", 0)
	seed.Release(g0)

	s := open(t, Options{Dir: dir})
	g, tier := mustResolveTier(t, s, "cycle:100", 0)
	if tier != TierDisk {
		t.Fatalf("tier = %v, want disk", tier)
	}
	s.SetLimits(store.Limits{MaxBytes: 1})
	if removed, _ := s.GC(time.Now()); removed != 1 {
		t.Fatal("artifact not evicted")
	}
	// The graph must remain fully readable post-unlink.
	deg := 0
	for v := int32(0); v < int32(g.N()); v++ {
		deg += len(g.Neighbors(v))
	}
	if deg != 2*g.M() {
		t.Fatalf("degree sum %d, want %d", deg, 2*g.M())
	}
	if s.Stats().MmapBytes == 0 {
		t.Fatal("mapping released while still referenced")
	}
	s.Release(g)
	if s.Stats().MmapBytes != 0 {
		t.Fatal("mapping not released after last reference")
	}
	// The next resolve rebuilds (file gone, entry dropped).
	g2, tier := mustResolveTier(t, s, "cycle:100", 0)
	if tier != TierBuild {
		t.Fatalf("post-eviction tier = %v, want build", tier)
	}
	s.Release(g2)
}

func TestVerifyArtifact(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	if _, err := s.VerifyArtifact("cycle:24", 0); err == nil {
		t.Fatal("verify of a missing artifact succeeded")
	}
	g, _ := mustResolveTier(t, s, "cycle:24", 0)
	s.Release(g)
	d1, err := s.VerifyArtifact("cycle:24", 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.VerifyArtifact("cycle:24", 0)
	if err != nil || d1 != d2 {
		t.Fatalf("digest unstable: %s vs %s (%v)", d1, d2, err)
	}
	// Corrupt and re-verify: the digest check must fail loudly.
	path := s.path(Fingerprint("cycle:24", 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VerifyArtifact("cycle:24", 0); err == nil {
		t.Fatal("verify of a corrupt artifact succeeded")
	}
}

func TestOpenScanTolerance(t *testing.T) {
	dir := t.TempDir()
	seed := open(t, Options{Dir: dir})
	g, _ := mustResolveTier(t, seed, "cycle:40", 0)
	seed.Release(g)
	// Plant junk: a bad filename in a shard, a crashed write's tmp file.
	fp := Fingerprint("cycle:40", 0)
	if err := os.WriteFile(filepath.Join(dir, fp[:2], "junk.g"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp", "crashed-write.tmp"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	crashed := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "tmp", "crashed-write.tmp"), crashed, crashed); err != nil {
		t.Fatal(err)
	}
	// A fresh staging file may be another process's write in flight.
	if err := os.WriteFile(filepath.Join(dir, "tmp", "in-flight.tmp"), []byte("z"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, Options{Dir: dir})
	if s.Skipped() == 0 {
		t.Fatal("junk file not counted as skipped")
	}
	if s.Stats().DiskFiles != 1 {
		t.Fatalf("disk files = %d, want 1", s.Stats().DiskFiles)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp", "crashed-write.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not cleared")
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp", "in-flight.tmp")); err != nil {
		t.Fatalf("fresh staging file removed: %v", err)
	}
	g2, tier := mustResolveTier(t, s, "cycle:40", 0)
	if tier != TierDisk {
		t.Fatalf("tier = %v, want disk", tier)
	}
	s.Release(g2)
}

// TestWarmResolveAllocatesNothing pins the mem tier's cost: a resolve
// the registry serves, and its release, neither hash the key nor
// allocate.
func TestWarmResolveAllocatesNothing(t *testing.T) {
	s := open(t, Options{Dir: t.TempDir()})
	g, _ := mustResolveTier(t, s, "regular:256,4", 1)
	s.Release(g)
	allocs := testing.AllocsPerRun(100, func() {
		g, err := s.Resolve("regular:256,4", 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(g)
	})
	if allocs != 0 {
		t.Fatalf("warm resolve + release made %v allocations, want 0", allocs)
	}
}

// TestGCEvictsMatchingEntry checks that GC, which names artifacts by
// fingerprint, drops exactly the registry entry of the file it removed
// from a registry keyed by (spec, seed).
func TestGCEvictsMatchingEntry(t *testing.T) {
	dir := t.TempDir()
	seed := open(t, Options{Dir: dir})
	specs := []string{"cycle:32", "cycle:48"}
	for i, spec := range specs {
		g, _ := mustResolveTier(t, seed, spec, 0)
		seed.Release(g)
		when := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(seed.path(Fingerprint(spec, 0)), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh store scans the stamped times; both graphs then sit idle
	// in its registry.
	s := open(t, Options{Dir: dir})
	for _, spec := range specs {
		g, _ := mustResolveTier(t, s, spec, 0)
		s.Release(g)
	}
	s.SetLimits(store.Limits{MaxAge: 9*time.Hour + 30*time.Minute})
	if removed, _ := s.GC(time.Now()); removed != 1 {
		t.Fatalf("GC removed %d artifacts, want 1", removed)
	}
	if _, tier := mustResolveTier(t, s, "cycle:32", 0); tier != TierBuild {
		t.Fatalf("evicted graph resolved from %v, want build", tier)
	}
	if _, tier := mustResolveTier(t, s, "cycle:48", 0); tier != TierMem {
		t.Fatalf("kept graph resolved from %v, want mem", tier)
	}
}

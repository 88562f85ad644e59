package graphstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// sameCSR reports whether a and b have identical CSR arrays.
func sameCSR(a, b *graph.Graph) bool {
	return slices.Equal(a.Offsets(), b.Offsets()) && slices.Equal(a.Adj(), b.Adj())
}

// idleEntries returns the idle ring's entries, newest first. Callers
// hold s.mu.
func idleEntries(s *Store) []*entry {
	var out []*entry
	for e := s.idle.next; e != &s.idle; e = e.next {
		if e.next.prev != e {
			panic("idle ring broken")
		}
		out = append(out, e)
	}
	return out
}

// checkIdle verifies the idle ring against the counters under s.mu:
// every listed entry is unreferenced and registered, IdleBytes is the
// sum of their sizes, and it exceeds the budget by at most the newest
// entry. It returns the newest idle entry (nil when the list is empty).
func checkIdle(t *testing.T, s *Store) *entry {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := idleEntries(s)
	var sum int64
	for _, e := range idle {
		if e.refs != 0 || s.mem[e.key] != e || s.byGraph[e.g] != e {
			t.Fatalf("idle entry %.12s: refs %d, registered %v", e.fp, e.refs, s.mem[e.key] == e)
		}
		sum += e.size
	}
	if sum != s.idleBytes {
		t.Fatalf("idle bytes %d, listed entries sum to %d", s.idleBytes, sum)
	}
	if len(idle) == 0 {
		return nil
	}
	newest := idle[0]
	if s.idleBytes > s.idleBudget+newest.size {
		t.Fatalf("idle bytes %d exceed budget %d by more than the newest entry (%d)", s.idleBytes, s.idleBudget, newest.size)
	}
	return newest
}

// TestIdleBudget pins the registry's byte budget: idle graphs are
// evicted least recently released first, a held graph never is, the
// newest idle graph stays even when it alone exceeds the budget, and an
// evicted graph comes back through the disk or build tier unchanged.
func TestIdleBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dir     bool
		reload  Tier
		mmapped bool
	}{
		{"disk", true, TierDisk, true},
		{"memory", false, TierBuild, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{}
			if tc.dir {
				opts.Dir = t.TempDir()
			}
			s := open(t, opts)
			s.idleBudget = 16 << 10
			resolves := 0
			resolve := func(spec string, seed uint64) (*graph.Graph, Tier) {
				resolves++
				return mustResolveTier(t, s, spec, seed)
			}

			held, _ := resolve("regular:256,4", 1000)
			heldWant, _ := defaultBuildForTest("regular:256,4", 1000)
			const distinct = 200
			for i := 0; i < distinct; i++ {
				g, _ := resolve("regular:64,4", uint64(i))
				g.AdjPow2Narrow() // a padded table counts toward the entry's size
				s.Release(g)
				if newest := checkIdle(t, s); newest == nil || newest.g != g {
					t.Fatalf("graph %d is not the newest idle entry", i)
				}
			}
			st := s.Stats()
			if st.MemEvicted == 0 {
				t.Fatalf("no idle graph evicted under a %d-byte budget: %+v", s.idleBudget, st)
			}
			if !sameCSR(held, heldWant) {
				t.Fatal("held graph changed while idle graphs were evicted")
			}
			if s.mem[key{"regular:256,4", 1000}] == nil {
				t.Fatal("held graph evicted")
			}

			// The oldest graph was evicted: it re-resolves from the next
			// tier with the same CSR.
			g0, tier := resolve("regular:64,4", 0)
			if tier != tc.reload {
				t.Fatalf("evicted graph re-resolved from %v, want %v", tier, tc.reload)
			}
			want0, _ := defaultBuildForTest("regular:64,4", 0)
			if !sameCSR(g0, want0) {
				t.Fatal("evicted graph re-resolved with a different CSR")
			}
			if mapped := s.Stats().MmapBytes > 0; mapped != tc.mmapped {
				t.Fatalf("reloaded graph mapped = %v, want %v", mapped, tc.mmapped)
			}
			s.Release(g0)
			s.Release(g0) // no reference outstanding: a no-op
			checkIdle(t, s)

			// A graph larger than the whole budget stays idle on its own,
			// so the next job on it is a mem hit.
			big, _ := resolve("regular:4096,4", 1)
			s.Release(big)
			newest := checkIdle(t, s)
			if newest == nil || newest.g != big || newest.size <= s.idleBudget {
				t.Fatal("the over-budget graph is not the newest idle entry")
			}
			if st := s.Stats(); st.IdleBytes != newest.size {
				t.Fatalf("idle bytes %d, want only the over-budget graph's %d", st.IdleBytes, newest.size)
			}
			if _, tier := resolve("regular:4096,4", 1); tier != TierMem {
				t.Fatalf("over-budget graph re-resolved from %v, want mem", tier)
			}
			s.Release(big)
			s.Release(held)
			checkIdle(t, s)

			st = s.Stats()
			if got := st.Builds + st.MemHits + st.DiskHits; got != int64(resolves) {
				t.Fatalf("tiers served %d resolves, want %d: %+v", got, resolves, st)
			}
			if idle := len(idleEntries(s)); st.MemEntries != idle {
				t.Fatalf("%d registry entries, %d idle, with nothing held", st.MemEntries, idle)
			}
		})
	}
}

// TestEvictionRace resolves and releases 50 graphs from 8 goroutines
// under a budget that forces evictions, while a ninth runs GC with a
// byte cap that unlinks artifacts. Every served graph must equal a
// fresh build, no held entry may be dropped from the registry's
// reference table (its mapping unmapped), and the counters must
// balance once the workers stop. Run it under -race.
func TestEvictionRace(t *testing.T) {
	const (
		graphs  = 50
		workers = 8
		rounds  = 60
	)
	want := make([]*graph.Graph, graphs)
	for i := range want {
		g, err := defaultBuildForTest("regular:128,4", uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = g
	}
	for _, disk := range []bool{true, false} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			opts := Options{}
			if disk {
				opts.Dir = t.TempDir()
			}
			s := open(t, opts)
			s.idleBudget = 4 * want[0].Bytes()
			s.SetLimits(store.Limits{MaxBytes: 8 << 10})

			stop := make(chan struct{})
			gcDone := make(chan struct{})
			go func() {
				defer close(gcDone)
				for {
					select {
					case <-stop:
						return
					default:
						s.GC(time.Now())
					}
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						i := (r + w%4) % graphs // pairs of workers share each graph
						g, err := s.Resolve("regular:128,4", uint64(i))
						if err != nil {
							t.Error(err)
							return
						}
						g.AdjPow2Narrow()
						s.mu.Lock()
						e := s.byGraph[g]
						held := e != nil && e.refs > 0 && e.next == nil
						s.mu.Unlock()
						if !held {
							t.Errorf("graph %d served without a held registry entry", i)
						}
						if !sameCSR(g, want[i]) {
							t.Errorf("graph %d differs from a fresh build", i)
						}
						s.Release(g)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			<-gcDone
			s.GC(time.Now()) // at least one sweep, over idle entries only

			checkIdle(t, s)
			st := s.Stats()
			if got := st.Builds + st.MemHits + st.DiskHits; got != workers*rounds {
				t.Fatalf("tiers served %d resolves, want %d: %+v", got, workers*rounds, st)
			}
			if st.MemEvicted == 0 || (disk && st.Evicted == 0) {
				t.Fatalf("no idle graph or artifact evicted: %+v", st)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if idle := len(idleEntries(s)); len(s.byGraph) != len(s.mem) || len(s.mem) != idle {
				t.Fatalf("%d tracked graphs, %d registered, %d idle, with nothing held", len(s.byGraph), len(s.mem), idle)
			}
			var mapped int64
			for _, e := range s.byGraph {
				mapped += int64(len(e.mapped))
			}
			if mapped != s.mmapBytes {
				t.Fatalf("mmap bytes %d, tracked mappings hold %d", s.mmapBytes, mapped)
			}
		})
	}
}

// BenchmarkResolveEvicted measures what an eviction costs the next use
// of a graph: with a zero idle budget a released graph never stays
// resident, so each resolve of the two alternating regular:4096,5
// artifacts is an mmap, a checksum verify and a decode.
func BenchmarkResolveEvicted(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s.idleBudget = 0
	for seed := uint64(1); seed <= 2; seed++ {
		g, err := s.Resolve("regular:4096,5", seed)
		if err != nil {
			b.Fatal(err)
		}
		s.Release(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, tier, err := s.ResolveTier("regular:4096,5", uint64(1+i%2))
		if err != nil || tier != TierDisk {
			b.Fatalf("resolve: tier %v, err %v", tier, err)
		}
		s.Release(g)
	}
}

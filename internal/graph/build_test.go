package graph

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestBuildMatchesReference checks the counting-sort CSR layout against
// a naive one: random multigraphs, with parallel edges and (loose only)
// self-loops, must come out with every neighbour list sorted, free of
// repeats, and equal to the set of distinct neighbours.
func TestBuildMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(40)
		b := NewBuilder(n, "ref")
		b.SetLoose(true)
		want := make([]map[int32]bool, n)
		for v := range want {
			want[v] = make(map[int32]bool)
		}
		for i, m := 0, r.Intn(4*n); i < m; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			b.AddEdge(u, v)
			if u != v {
				want[u][v] = true
				want[v][u] = true
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		validateOrFail(t, g)
		for v := int32(0); v < int32(n); v++ {
			var ref []int32
			for u := range want[v] {
				ref = append(ref, u)
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			got := g.Neighbors(v)
			if len(got) != len(ref) {
				t.Fatalf("seed %d vertex %d: neighbours %v, want %v", seed, v, got, ref)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d vertex %d: neighbours %v, want %v", seed, v, got, ref)
				}
			}
		}
	}
}

// TestEdgeCountsMatchesMap drives the repair loop's multiplicity table
// and a map through the same random adds, removes and lookups, starting
// from a table small enough that it must grow several times.
func TestEdgeCountsMatchesMap(t *testing.T) {
	r := rng.New(7)
	const n = 60
	tab := newEdgeCounts(1)
	ref := make(map[uint64]int32)
	for i := 0; i < 20000; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		k := edgeKey(u, v)
		switch {
		case r.Intn(3) == 0:
			if got, want := tab.get(u, v), ref[k]; got != want {
				t.Fatalf("op %d: get(%d,%d) = %d, want %d", i, u, v, got, want)
			}
		case ref[k] > 0 && r.Bool():
			ref[k]--
			if got := tab.add(v, u, -1); got != ref[k] {
				t.Fatalf("op %d: remove(%d,%d) = %d, want %d", i, u, v, got, ref[k])
			}
		default:
			ref[k]++
			if got := tab.add(u, v, 1); got != ref[k] {
				t.Fatalf("op %d: add(%d,%d) = %d, want %d", i, u, v, got, ref[k])
			}
		}
	}
	if tab.used != len(ref) || 2*tab.used > len(tab.keys) {
		t.Fatalf("table holds %d keys in %d slots, map %d", tab.used, len(tab.keys), len(ref))
	}
}

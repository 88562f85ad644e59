// Package graph provides an immutable compressed-sparse-row (CSR) graph
// representation and the generators for every graph family used in the
// paper's analysis and experiments: grids and tori, regular graphs,
// expanders, trees, stars, lollipops, power-law and geometric random
// graphs, and more.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected
// unless a generator documents otherwise. Vertices are identified by
// int32 indices in [0, N()).
package graph

import (
	"fmt"
	"sync"
)

// Graph is an immutable undirected graph in CSR form. The neighbor list
// of vertex v is Adj()[Offsets()[v]:Offsets()[v+1]].
type Graph struct {
	offsets []int32 // length n+1
	adj     []int32 // length 2m (each undirected edge appears twice)
	name    string  // human-readable family label, e.g. "grid(d=2,side=32)"

	// Degree metadata cached by finalize at Build time so the walk
	// kernels can select their sampling fast path in O(1): regDeg is the
	// common degree if the graph is regular (-1 otherwise), and degPow2
	// records whether that degree is a power of two.
	metaDone bool
	regDeg   int32
	degPow2  bool

	// Power-of-two-padded copy of adj for the dense regular-graph
	// kernels, built on first use and shared by every walk on the
	// graph: padding the length to a power of two lets the kernels
	// index it as adjPad[i&(len(adjPad)-1)] — provably in bounds (no
	// per-load check) and an identity for every real index. Guarded by
	// adjPadOnce because parallel trials request it concurrently.
	adjPadOnce sync.Once
	adjPad     []int32

	// adjPad16 is adjPad narrowed to uint16, available only when every
	// vertex id fits (N() <= 65536). Halving the element width halves
	// the kernels' hottest cache footprint — the adjacency gather — so
	// the dense kernels use it in place of adjPad on the sizes where it
	// applies, and build adjPad only above them. Empty (not nil) marks
	// "built, too wide".
	adjPad16Once sync.Once
	adjPad16     []uint16
}

// AdjPow2 returns the adjacency array padded with zeros to the next
// power-of-two length (minimum 1), built lazily and cached. The dense
// kernels' masked indexing never reaches the padding — every index they
// form is below len(Adj()) — so the pad values are irrelevant; zeros
// keep the memory safe to read regardless.
func (g *Graph) AdjPow2() []int32 {
	g.adjPadOnce.Do(func() {
		n := 1
		for n < len(g.adj) {
			n <<= 1
		}
		g.adjPad = make([]int32, n)
		copy(g.adjPad, g.adj)
	})
	return g.adjPad
}

// AdjPow2Narrow is AdjPow2 with uint16 elements, for graphs whose
// vertex ids all fit in 16 bits (N() <= 65536). It returns nil for
// wider graphs; callers fall back to AdjPow2. Built lazily and cached,
// same concurrency contract as AdjPow2.
func (g *Graph) AdjPow2Narrow() []uint16 {
	g.adjPad16Once.Do(func() {
		if g.N() > 1<<16 {
			g.adjPad16 = []uint16{}
			return
		}
		n := 1
		for n < len(g.adj) {
			n <<= 1
		}
		g.adjPad16 = make([]uint16, n)
		for i, v := range g.adj {
			g.adjPad16[i] = uint16(v)
		}
	})
	if len(g.adjPad16) == 0 && len(g.adj) > 0 {
		return nil
	}
	return g.adjPad16
}

// Bytes returns the memory g's arrays hold: the CSR offsets and
// adjacency plus whichever padded tables (AdjPow2, AdjPow2Narrow) have
// been built. For a graph decoded from a mapped artifact, the arrays
// read from the file alias the mapping rather than the heap. Call it
// only while no goroutine is building a padded table.
func (g *Graph) Bytes() int64 {
	return 4*int64(len(g.offsets)+len(g.adj)+len(g.adjPad)) + 2*int64(len(g.adjPad16))
}

// finalize computes the cached degree metadata. Builders call it once at
// construction; accessors fall back to it lazily for hand-assembled
// graphs in tests.
func (g *Graph) finalize() {
	g.regDeg, g.degPow2 = degreeMeta(g.offsets)
	g.metaDone = true
}

// degreeMeta derives the cached degree metadata from CSR offsets: the
// common degree (-1 if degrees differ; the empty graph is 0-regular)
// and whether it is a positive power of two.
func degreeMeta(offsets []int32) (int32, bool) {
	if len(offsets) < 2 {
		return 0, false
	}
	d := offsets[1] - offsets[0]
	for v := 1; v+1 < len(offsets); v++ {
		if offsets[v+1]-offsets[v] != d {
			return -1, false
		}
	}
	return d, d > 0 && d&(d-1) == 0
}

// Offsets returns the CSR offset array (length N()+1). The slice aliases
// internal storage and must not be modified.
func (g *Graph) Offsets() []int32 { return g.offsets }

// Adj returns the flat CSR adjacency array (length 2M()). The slice
// aliases internal storage and must not be modified.
func (g *Graph) Adj() []int32 { return g.adj }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Name returns the human-readable family label assigned by the generator.
func (g *Graph) Name() string { return g.name }

// Neighbors returns the neighbor slice of v. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int32 {
	return g.offsets[v+1] - g.offsets[v]
}

// Neighbor returns the i-th neighbor of v. It is the hot-path accessor
// used by the walk engines: sampling a uniform neighbor of v is
// g.Neighbor(v, rng.Int31n(g.Degree(v))).
func (g *Graph) Neighbor(v, i int32) int32 {
	return g.adj[g.offsets[v]+i]
}

// MinDegree returns the smallest vertex degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int32 {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := int32(1); v < int32(g.N()); v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the largest vertex degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int32 {
	var max int32
	for v := int32(0); v < int32(g.N()); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// IsRegular reports whether every vertex has the same degree, and returns
// that degree. The empty graph is regular with degree 0. The answer is
// cached at Build time, so this is O(1) on built graphs.
func (g *Graph) IsRegular() (bool, int32) {
	if !g.metaDone {
		g.finalize()
	}
	if g.regDeg < 0 {
		return false, 0
	}
	return true, g.regDeg
}

// DegreeIsPow2 reports whether the graph is regular with a power-of-two
// degree, the precondition of the mask sampling fast path. Cached at
// Build time.
func (g *Graph) DegreeIsPow2() bool {
	if !g.metaDone {
		g.finalize()
	}
	return g.degPow2
}

// HasEdge reports whether {u, v} is an edge. Neighbor lists are sorted, so
// this is a binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == v
}

// Volume returns the sum of degrees of the given vertex set.
func (g *Graph) Volume(set []int32) int64 {
	var vol int64
	for _, v := range set {
		vol += int64(g.Degree(v))
	}
	return vol
}

// Validate checks structural invariants: sorted neighbor lists, no
// self-loops, no duplicate edges, and symmetry (u in adj(v) iff v in
// adj(u)). Generators call this in tests; it is O(m log m).
func (g *Graph) Validate() error {
	n := int32(g.N())
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return fmt.Errorf("graph %q: bad offsets header", g.name)
	}
	for v := int32(0); v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph %q: offsets decrease at %d", g.name, v)
		}
		nb := g.Neighbors(v)
		for i, u := range nb {
			if u < 0 || u >= n {
				return fmt.Errorf("graph %q: vertex %d has out-of-range neighbor %d", g.name, v, u)
			}
			if u == v {
				return fmt.Errorf("graph %q: self-loop at %d", g.name, v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph %q: neighbors of %d not strictly sorted", g.name, v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph %q: edge %d-%d not symmetric", g.name, v, u)
			}
		}
	}
	if int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("graph %q: final offset %d != len(adj) %d", g.name, g.offsets[n], len(g.adj))
	}
	return nil
}

// String returns a short description like "grid(d=2,side=32): n=1089 m=2112".
func (g *Graph) String() string {
	return fmt.Sprintf("%s: n=%d m=%d", g.name, g.N(), g.M())
}

package graph

import "fmt"

// Builder accumulates undirected edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at Add time where cheap and
// always rejected at Build time. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	n     int32
	us    []int32
	vs    []int32
	name  string
	loose bool // if true, silently drop self-loops and duplicates at Build
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int, name string) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: int32(n), name: name}
}

// SetLoose configures the builder to silently discard self-loops and
// duplicate edges at Build time instead of returning an error. Random
// generators that may propose duplicates use this.
func (b *Builder) SetLoose(loose bool) { b.loose = loose }

// AddEdge records the undirected edge {u, v}. It panics if either
// endpoint is out of range or if u == v (unless the builder is loose).
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge %d-%d out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		if b.loose {
			return
		}
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// EdgeCount returns the number of edges recorded so far (before
// deduplication).
func (b *Builder) EdgeCount() int { return len(b.us) }

// Build produces the immutable CSR graph. Duplicate edges are an error
// unless the builder is loose, in which case they are dropped.
//
// Two counting-sort passes lay out the adjacency in O(n+m) with no
// comparison sort: every arc is first scattered into its target's
// bucket, then the targets are walked in increasing order and each arc
// is scattered into its source's bucket. Every neighbour list therefore
// comes out sorted, with parallel copies of an edge side by side.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	offsets := make([]int32, n+1)
	for i := range b.us {
		offsets[b.us[i]+1]++
		offsets[b.vs[i]+1]++
	}
	for v := int32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	bySrc := make([]int32, 2*len(b.us)) // bucket t holds the sources of arcs into t
	for i, u := range b.us {
		v := b.vs[i]
		bySrc[cursor[v]] = u
		cursor[v]++
		bySrc[cursor[u]] = v
		cursor[u]++
	}
	copy(cursor, offsets[:n])
	adj := make([]int32, len(bySrc))
	for t := int32(0); t < n; t++ {
		for _, s := range bySrc[offsets[t]:offsets[t+1]] {
			adj[cursor[s]] = t
			cursor[s]++
		}
	}

	// Compact duplicates in place. Scanning vertices in increasing order,
	// the first repeat met is the lexicographically smallest duplicate
	// edge {u, x}, u < x: a repeat with x < u would already have shown
	// up in x's list.
	w, lo := int32(0), int32(0)
	for u := int32(0); u < n; u++ {
		hi := offsets[u+1]
		prev := int32(-1)
		for _, x := range adj[lo:hi] {
			if x == prev {
				if !b.loose {
					return nil, fmt.Errorf("graph %q: duplicate edge %d-%d", b.name, u, x)
				}
				continue
			}
			adj[w] = x
			w++
			prev = x
		}
		lo = hi
		offsets[u+1] = w
	}
	g := &Graph{offsets: offsets, adj: adj[:w], name: b.name}
	g.finalize()
	return g, nil
}

// MustBuild is Build, panicking on error. Deterministic generators whose
// edge sets are duplicate-free by construction use this.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges constructs a graph directly from an edge list. It is a
// convenience for tests.
func FromEdges(n int, name string, edges [][2]int32) (*Graph, error) {
	b := NewBuilder(n, name)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

package graph

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// RandomRegular returns a random simple d-regular graph on n vertices.
// A random stub pairing (configuration model) is generated and then
// repaired: self-loops and parallel edges are eliminated by random double
// edge swaps, the standard procedure that preserves the degree sequence
// and yields a distribution asymptotically close to uniform. n*d must be
// even and d < n.
//
// Random regular graphs with d >= 3 are expanders with high probability,
// making this the workhorse family for Corollary 9 experiments.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular needs 1 <= d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d)
	}
	r := rng.New(seed)
	const maxRestarts = 50
	for restart := 0; restart < maxRestarts; restart++ {
		us, vs, ok := pairAndRepair(n, d, r)
		if !ok {
			continue
		}
		b := NewBuilder(n, fmt.Sprintf("random-regular(n=%d,d=%d)", n, d))
		b.us, b.vs = us, vs
		g, err := b.Build()
		if err != nil {
			continue
		}
		return g, nil
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d, d=%d) failed after %d restarts", n, d, maxRestarts)
}

// edgeCounts is a flat open-addressing table of edge multiplicities,
// keyed by the canonical edge lo<<32|hi. Since lo < hi, no key is 0,
// which marks an empty slot. Keys are never deleted (a count may drop to
// zero), so linear probing needs no tombstones.
type edgeCounts struct {
	keys   []uint64
	counts []int32
	used   int
	shift  uint // 64 - log2(len(keys))
}

// newEdgeCounts returns an empty table of size slots, a power of two.
func newEdgeCounts(size int) *edgeCounts {
	return &edgeCounts{
		keys:   make([]uint64, size),
		counts: make([]int32, size),
		shift:  64 - uint(bits.TrailingZeros(uint(size))),
	}
}

// edgeKey is the canonical key of the edge {u, v}, u != v.
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// slot returns the index holding key k, or the empty slot where k
// would go.
func (t *edgeCounts) slot(k uint64) int {
	mask := len(t.keys) - 1
	i := int((k * 0x9e3779b97f4a7c15) >> t.shift)
	for t.keys[i] != k && t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// get returns the multiplicity of {u, v}, 0 if it was never added.
func (t *edgeCounts) get(u, v int32) int32 { return t.counts[t.slot(edgeKey(u, v))] }

// add adds delta to the multiplicity of {u, v} and returns the result.
func (t *edgeCounts) add(u, v int32, delta int32) int32 {
	k := edgeKey(u, v)
	i := t.slot(k)
	if t.keys[i] == 0 {
		if 2*(t.used+1) > len(t.keys) { // keep the load factor <= 1/2
			grown := newEdgeCounts(2 * len(t.keys))
			for j, old := range t.keys {
				if old != 0 {
					at := grown.slot(old)
					grown.keys[at], grown.counts[at] = old, t.counts[j]
				}
			}
			grown.used = t.used
			*t = *grown
			i = t.slot(k)
		}
		t.keys[i] = k
		t.used++
	}
	t.counts[i] += delta
	return t.counts[i]
}

// pairAndRepair generates a random stub pairing and repairs defects
// (self-loops, parallel edges) with random double edge swaps. Edge i is
// {us[i], vs[i]}: the slices are sized for the Builder to take as they
// are. It returns ok=false if the repair loop fails to converge, in
// which case the caller restarts with fresh randomness.
func pairAndRepair(n, d int, r *rng.Source) (us, vs []int32, ok bool) {
	stubs := make([]int32, n*d)
	idx := 0
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			stubs[idx] = int32(v)
			idx++
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	m := len(stubs) / 2
	us, vs = make([]int32, m), make([]int32, m)
	seen := newEdgeCounts(pow2ceil(2 * m))
	var bad []int // indices of defective edges
	for i := 0; i < m; i++ {
		u, v := stubs[2*i], stubs[2*i+1]
		us[i], vs[i] = u, v
		if u == v || seen.add(u, v, 1) > 1 {
			bad = append(bad, i)
		}
	}

	isDefect := func(u, v int32) bool {
		return u == v || seen.get(u, v) > 1
	}
	removeEdge := func(u, v int32) {
		if u != v {
			seen.add(u, v, -1)
		}
	}
	addEdge := func(u, v int32) {
		if u != v {
			seen.add(u, v, 1)
		}
	}

	maxSwaps := 200 * (len(bad) + 1)
	for swaps := 0; len(bad) > 0 && swaps < maxSwaps; swaps++ {
		bi := bad[len(bad)-1]
		u, v := us[bi], vs[bi]
		if !isDefect(u, v) {
			bad = bad[:len(bad)-1] // repaired by an earlier swap
			continue
		}
		// Pick a random partner edge and propose the swap
		// (u,v),(x,y) -> (u,x),(v,y).
		pi := r.Intn(m)
		if pi == bi {
			continue
		}
		x, y := us[pi], vs[pi]
		if r.Bool() {
			x, y = y, x
		}
		if u == x || v == y {
			continue
		}
		// The new edges must not already exist and not be self-loops.
		if seen.get(u, x) > 0 || seen.get(v, y) > 0 {
			continue
		}
		removeEdge(u, v)
		removeEdge(x, y)
		addEdge(u, x)
		addEdge(v, y)
		us[bi], vs[bi] = u, x
		us[pi], vs[pi] = v, y
		bad = bad[:len(bad)-1]
		if isDefect(v, y) {
			bad = append(bad, pi)
		}
	}
	return us, vs, len(bad) == 0
}

// MustRandomRegular is RandomRegular, panicking on error. Tests and
// examples with known-valid parameters use this.
func MustRandomRegular(n, d int, seed uint64) *Graph {
	g, err := RandomRegular(n, d, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// ErdosRenyi returns a G(n, p) random graph. If connect is true, any
// vertices left isolated or components disconnected from the largest are
// linked by chaining one edge from each smaller component to the largest
// component, guaranteeing a connected result (the walk processes require
// connectivity).
func ErdosRenyi(n int, p float64, connect bool, seed uint64) *Graph {
	if n < 2 || p < 0 || p > 1 {
		panic("graph: ErdosRenyi needs n >= 2 and p in [0,1]")
	}
	r := rng.New(seed)
	b := NewBuilder(n, fmt.Sprintf("gnp(n=%d,p=%.4g)", n, p))
	// Geometric skipping over the implicit edge enumeration, with a
	// row cursor that only moves forward: O(n + m) time.
	if p > 0 {
		logq := math.Log1p(-p)
		total := int64(n) * int64(n-1) / 2
		pos := int64(-1)
		pairs := pairCursor{n: int64(n)}
		for {
			var skip int64
			if p >= 1 {
				skip = 1
			} else {
				u := r.Float64()
				if u == 0 {
					u = 0.5
				}
				skip = 1 + int64(math.Log(u)/logq)
				if skip < 1 {
					skip = 1
				}
			}
			pos += skip
			if pos >= total {
				break
			}
			b.AddEdge(pairs.at(pos))
		}
	}
	g := b.MustBuild()
	if connect {
		g = connectComponents(g, r)
	}
	return g
}

// pairCursor maps linear indices in [0, n(n-1)/2) to the unordered
// pairs (u, v), u < v, of the row-order enumeration: row u holds
// (u, u+1) … (u, n-1). Indices must not decrease between calls, so the
// row scan resumes where the previous call stopped and a whole pass
// costs O(n + m) rather than O(n) per index.
type pairCursor struct {
	n     int64
	u     int64 // current row
	start int64 // index of (u, u+1)
}

func (c *pairCursor) at(idx int64) (int32, int32) {
	for rowLen := c.n - 1 - c.u; idx >= c.start+rowLen; rowLen-- {
		c.start += rowLen
		c.u++
	}
	return int32(c.u), int32(c.u + 1 + idx - c.start)
}

// connectComponents links every component of g to the component of vertex
// 0 with a single edge per extra component, preserving the name.
func connectComponents(g *Graph, r *rng.Source) *Graph {
	comp, ncomp := Components(g)
	if ncomp <= 1 {
		return g
	}
	b := NewBuilder(g.N(), g.Name())
	b.SetLoose(true)
	for v := int32(0); v < int32(g.N()); v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				b.AddEdge(v, u)
			}
		}
	}
	// Pick one representative per component and chain them to a random
	// vertex of component 0.
	reps := make([]int32, ncomp)
	for i := range reps {
		reps[i] = -1
	}
	var comp0 []int32
	for v := int32(0); v < int32(g.N()); v++ {
		c := comp[v]
		if reps[c] == -1 {
			reps[c] = v
		}
		if c == comp[0] {
			comp0 = append(comp0, v)
		}
	}
	for c, rep := range reps {
		if int32(c) == comp[0] || rep == -1 {
			continue
		}
		anchor := comp0[r.Intn(len(comp0))]
		b.AddEdge(rep, anchor)
	}
	ng, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ng
}

// PowerLaw returns a random graph whose degree sequence follows a
// truncated power law with the given exponent (typically 2 < exponent
// < 3), built by the configuration model with self-loops and duplicate
// edges dropped, then connected. minDeg and maxDeg truncate the degree
// distribution. The paper cites power-law graphs as a class with good
// conductance where Theorem 8 guarantees fast coverage.
func PowerLaw(n int, exponent float64, minDeg, maxDeg int, seed uint64) *Graph {
	if n < 2 || exponent <= 1 || minDeg < 1 || maxDeg < minDeg || maxDeg >= n {
		panic("graph: PowerLaw parameter error")
	}
	r := rng.New(seed)
	// Sample degrees by inverse-transform on the discrete power law.
	weights := make([]float64, maxDeg-minDeg+1)
	total := 0.0
	for k := minDeg; k <= maxDeg; k++ {
		w := math.Pow(float64(k), -exponent)
		weights[k-minDeg] = w
		total += w
	}
	degrees := make([]int, n)
	sumDeg := 0
	for i := range degrees {
		u := r.Float64() * total
		acc := 0.0
		deg := maxDeg
		for k := minDeg; k <= maxDeg; k++ {
			acc += weights[k-minDeg]
			if u < acc {
				deg = k
				break
			}
		}
		degrees[i] = deg
		sumDeg += deg
	}
	if sumDeg%2 != 0 {
		degrees[0]++
		sumDeg++
	}
	stubs := make([]int32, 0, sumDeg)
	for v, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := NewBuilder(n, fmt.Sprintf("powerlaw(n=%d,alpha=%.2f)", n, exponent))
	b.SetLoose(true)
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return connectComponents(g, r)
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, an edge between points within Euclidean distance
// radius. Bucketed grid search keeps construction near O(n + m). If
// connect is true, stray components are linked as in ErdosRenyi.
func RandomGeometric(n int, radius float64, connect bool, seed uint64) *Graph {
	if n < 2 || radius <= 0 {
		panic("graph: RandomGeometric needs n >= 2 and radius > 0")
	}
	r := rng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) (int, int) {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	buckets := make(map[[2]int][]int32)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		buckets[[2]int{cx, cy}] = append(buckets[[2]int{cx, cy}], int32(i))
	}
	b := NewBuilder(n, fmt.Sprintf("rgg(n=%d,r=%.3f)", n, radius))
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{cx + dx, cy + dy}] {
					if int32(i) >= j {
						continue
					}
					ddx := xs[i] - xs[j]
					ddy := ys[i] - ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdge(int32(i), j)
					}
				}
			}
		}
	}
	g := b.MustBuild()
	if connect {
		g = connectComponents(g, r)
	}
	return g
}

// FromDegreeSequence builds a random simple graph with (approximately)
// the given degree sequence using the configuration model; unrealizable
// stubs (self-loops, duplicates) are dropped. The sum of degrees must be
// positive. Returned degrees may therefore be slightly below the request.
func FromDegreeSequence(degrees []int, seed uint64) (*Graph, error) {
	n := len(degrees)
	if n < 2 {
		return nil, fmt.Errorf("graph: degree sequence needs >= 2 vertices")
	}
	sum := 0
	for v, d := range degrees {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("graph: degree %d of vertex %d out of range", d, v)
		}
		sum += d
	}
	if sum == 0 {
		return nil, fmt.Errorf("graph: empty degree sequence")
	}
	r := rng.New(seed)
	stubs := make([]int32, 0, sum)
	for v, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(v))
		}
	}
	if len(stubs)%2 != 0 {
		stubs = stubs[:len(stubs)-1]
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := NewBuilder(n, fmt.Sprintf("degseq(n=%d)", n))
	b.SetLoose(true)
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1])
	}
	return b.Build()
}

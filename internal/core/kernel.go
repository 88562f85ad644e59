package core

// This file implements the dense half of the dual-mode cobra-step
// engine. The sparse kernel (Walk.Step in core.go) walks the frontier as
// a vertex list with one Lemire draw per sample and branch-free bitset
// updates; it is optimal for small frontiers and is byte-identical to
// the original engine for a fixed seed. At steady state on
// well-connected graphs the active set is Θ(n), where per-sample draws
// and bookkeeping dominate. The dense kernel removes them:
//
//   - neighbor indices come in chunked blocks from rng.Block.Fill sized
//     to the unroll factor, and the regular/pow2/irregular shape branch
//     is hoisted out of the loop into per-shape chunk samplers whose K=2
//     bodies are unrolled four vertices deep;
//   - next-frontier membership is a plain byte store into a mark array —
//     no read-modify-write, no dedup branch per sample — gathered into
//     bitset words by one sequential bitset.FromMarks pass per round;
//   - coverage is merged word-by-word with popcounts (bitset.UnionCount);
//   - the frontier stays bitset-resident across consecutive dense rounds
//     and is decoded to a vertex list only when a sparse round or an
//     accessor needs one.
//
// A walk under a branching function (NewGeneral) takes one dense loop
// of its own, sampleBranching: factors from the walk's Source, then one
// 32-bit block draw per neighbor by fixed-point multiply on every shape.
//
// Shape selection for the fixed-K cobra walk:
//
//   - regular, power-of-two degree: mask sampling, base = v·d, no loads
//     besides the adjacency entry itself;
//   - regular, any degree: fixed-point multiply sampling, base = v·d;
//   - irregular: per-vertex degree and offset loads with fixed-point
//     multiply sampling — still O(1) per draw, so power-law and other
//     irregular families take the dense path too.
//
// The two kernels consume randomness in different orders, so a walk that
// ever enters dense mode is distribution-equivalent, not byte-identical,
// to a sparse-only run (see TestDenseSparseDistributionEquivalence).
// Within the dense mode, draws are consumed in frontier order, one
// whole round per rng.Block.Fill — or per rng.Block.Fill32 on the fused
// regular paths, which prefetch the same words pre-split into 32-bit
// halves (both drivers consume identically, so the list- and
// bitset-resident modes are stream-identical). Per-vertex
// consumption depends on the shape: the K=2 regular paths spend one
// 32-bit half per vertex — both neighbor indices come from a single
// half-draw via bit-field splitting (pow2 degree) or fixed-point
// multiply reuse (rng.Block.PairIndex is the testable specification) —
// and the irregular multiply path spends one 64-bit word per vertex; a
// round over c vertices fetches (c·hpv+1)/2 words.

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// DefaultDenseTheta is the default kernel-switch density θ: a step runs
// the dense kernel when the active set is larger than N/θ. At 1/8 of the
// vertices the frontier's bitset words are populated enough that
// word-parallel merging and block sampling beat the sparse list walk.
const DefaultDenseTheta = 8

// AllocMark allocates a mark array for dense sampling over a universe of
// n vertices. Its length is the next power of two >= n: the samplers
// index it as mark[i&(len(mark)-1)], which the compiler proves in bounds
// (no per-store check) and which is an identity exactly when the length
// is a power of two. Pass the whole array to the sampling kernels and
// mark[:n] to bitset.FromMarks.
func AllocMark(n int) []byte {
	if n < 1 {
		n = 1
	}
	return make([]byte, 1<<bits.Len(uint(n-1)))
}

// ensureDraws returns *buf grown (if needed) to hold at least words
// 64-bit draws, sliced to its full power-of-two length. The drivers
// fetch one whole round of randomness into it with a single
// rng.Block.Fill; the power-of-two length lets the samplers mask their
// draw indices instead of bounds-checking them.
func ensureDraws(buf *[]uint64, words int) []uint64 {
	if cap(*buf) < words {
		n := 1
		for n < words {
			n <<= 1
		}
		*buf = make([]uint64, n)
	}
	return (*buf)[:cap(*buf)]
}

// ensureDraws32 is ensureDraws for the pre-split 32-bit draw scratch
// used by the fused regular kernels (one half-draw per vertex, written
// by rng.Block.Fill32).
func ensureDraws32(buf *[]uint32, halves int) []uint32 {
	if cap(*buf) < halves {
		n := 1
		for n < halves {
			n <<= 1
		}
		*buf = make([]uint32, n)
	}
	return (*buf)[:cap(*buf)]
}

// DenseCutoff returns the frontier size above which the dense kernel
// runs, for a graph of n vertices and a Config/θ value of theta:
// 0 selects DefaultDenseTheta, negative disables the dense kernel
// entirely (the byte-stable sparse-only contract), and θ >= n makes the
// dense kernel run on every step.
func DenseCutoff(n, theta int) int {
	switch {
	case theta < 0:
		return math.MaxInt
	case theta == 0:
		return n / DefaultDenseTheta
	case theta >= n:
		// n/theta would round to 1 at theta == n, which still sends
		// single-vertex rounds to the sparse kernel; the documented
		// contract is that theta >= n forces dense on every round.
		return 0
	default:
		return n / theta
	}
}

// k2Shape is the resolved K=2 dense kernel for one graph shape: kind
// selects the sampling scheme, hpv is its draw consumption in 32-bit
// halves per vertex (a round over c vertices consumes (c·hpv+1)/2
// 64-bit words, fetched by the driver in one Fill — or, on the fused
// regular paths, the same words pre-split into c halves by one Fill32),
// and the remaining fields are the scheme's pre-resolved parameters.
// Dispatch is a direct switch rather than a closure call so escape
// analysis stays exact.
type k2Shape struct {
	kind k2Kind
	hpv  int
	adj  []int32  // the CSR adjacency (fallback), or the padded one when adjN is nil
	adjN []uint16 // narrow padded adjacency for the regular shapes; nil when ids exceed 16 bits
	offs []int32
	deg  int32
}

type k2Kind int8

const (
	k2Pow2 k2Kind = iota
	k2Regular
	k2Fallback
)

// sample runs the selected scheme over the frontier, with the round's
// pre-fetched randomness in the leading (len(chunk)·hpv+1)/2 words of
// draws (in vertex order) and next-frontier membership recorded as byte
// stores into mark. draws is the driver's whole power-of-two scratch
// (see ensureDraws) rather than the filled prefix so the samplers'
// masked indexing compiles without bounds checks.
func (s *k2Shape) sample(chunk []int32, draws []uint64, mark []byte) {
	switch {
	case s.kind == k2Pow2 && s.adjN != nil:
		samplePow2K2(s.adjN, s.deg, mark, chunk, draws)
	case s.kind == k2Pow2:
		samplePow2K2(s.adj, s.deg, mark, chunk, draws)
	case s.kind == k2Regular && s.adjN != nil:
		sampleRegularK2(s.adjN, s.deg, mark, chunk, draws)
	case s.kind == k2Regular:
		sampleRegularK2(s.adj, s.deg, mark, chunk, draws)
	default:
		sampleFallbackK2(s.adj, s.offs, mark, chunk, draws)
	}
}

// sampleFrontierDense performs the sampling half of one dense cobra
// round: every vertex of active draws k uniform neighbors (with
// replacement) from blk, and each sampled vertex's byte in mark is set
// to 1. mark must come in all-zero with power-of-two length >= g.N()
// (allocate it with AllocMark); gather the first g.N() bytes with
// bitset.FromMarks (which re-zeroes them). Selection of the
// mask/multiply fast path uses the graph's cached degree metadata;
// active must not contain isolated vertices (the walk constructors
// reject graphs that have any). The draw sequence is part of the
// engine's determinism contract. draws is the caller's draw scratch,
// grown here as needed (pass the address of a reusable, initially nil
// slice).
func sampleFrontierDense(g *graph.Graph, active []int32, k int, mark []byte, blk *rng.Block, draws *[]uint64) {
	if k == 2 {
		s := denseKernelK2(g, mark, len(active))
		d := ensureDraws(draws, (len(active)*s.hpv+1)/2)
		blk.Fill(d[:(len(active)*s.hpv+1)/2])
		s.sample(active, d, mark)
		return
	}
	sampleFrontierGeneralK(g, active, k, mark, blk)
}

// sampleFrontierBits is sampleFrontierDense reading the frontier from a
// bitset instead of a list (the bitset-resident frontier). Vertices are
// visited in ascending order with the same per-vertex draw consumption,
// so the draw stream is identical to running the list kernel on the
// materialized frontier. The two regular shapes sample each vertex as
// its bit is decoded (never materializing a list); the irregular shape
// decodes into *scratch first (stored back, so the buffer is reused
// across rounds).
func sampleFrontierBits(g *graph.Graph, frontier *bitset.Set, k int, mark []byte, blk *rng.Block, scratch *[]int32, draws *[]uint64, draws32 *[]uint32) {
	if k != 2 {
		// General branching factors are off the fast path: materialize
		// the frontier and run the list kernel.
		*scratch = frontier.AppendTo((*scratch)[:0])
		sampleFrontierGeneralK(g, *scratch, k, mark, blk)
		return
	}
	s := denseKernelK2(g, mark, 1)
	switch s.kind {
	case k2Pow2, k2Regular:
		pop := 0
		for _, w := range frontier.Words() {
			pop += bits.OnesCount64(w)
		}
		// One half-draw per vertex, prefilled already split into 32-bit
		// halves (rng.Block.Fill32): word i/2's low-then-high half is
		// half i, identical to the list samplers' consumption, so the
		// two drivers stay stream-identical while the fused loops fetch
		// each draw with one indexed load.
		d := ensureDraws32(draws32, pop)
		blk.Fill32(d[:pop])
		switch {
		case s.kind == k2Pow2 && s.adjN != nil:
			fusedPow2K2(s.adjN, s.deg, mark, frontier.Words(), d)
		case s.kind == k2Pow2:
			fusedPow2K2(s.adj, s.deg, mark, frontier.Words(), d)
		case s.adjN != nil:
			fusedRegularK2(s.adjN, s.deg, mark, frontier.Words(), d)
		default:
			fusedRegularK2(s.adj, s.deg, mark, frontier.Words(), d)
		}
	default:
		*scratch = frontier.AppendTo((*scratch)[:0])
		active := *scratch
		d := ensureDraws(draws, (len(active)*s.hpv+1)/2)
		blk.Fill(d[:(len(active)*s.hpv+1)/2])
		s.sample(active, d, mark)
	}
}

// denseKernelK2 selects the K=2 sampling scheme for g's shape.
// Degrees of 2^16 or more exceed PairIndex resolution and fall through
// to the offset/multiply sampler (any degree). The regular shapes
// gather from one padded table per graph: the uint16 one when every
// vertex id fits in 16 bits, else the int32 one, so a graph never holds
// both. mark is validated here, once per round: the samplers' masked
// stores require its length to be a power of two (see allocMark), or
// masking would silently alias distinct vertices.
func denseKernelK2(g *graph.Graph, mark []byte, frontierLen int) k2Shape {
	if len(mark) == 0 || len(mark)&(len(mark)-1) != 0 || len(mark) < g.N() {
		panic("core: dense kernel mark length must be a power of two >= N")
	}
	adj := g.Adj()
	regular, deg := g.IsRegular()
	if regular && deg == 0 && frontierLen > 0 {
		// Matches the sparse kernel's Int31n(0) panic instead of
		// silently reading past the (empty) adjacency array.
		panic("core: dense kernel on a graph with no edges")
	}
	var s k2Shape
	switch {
	case regular && g.DegreeIsPow2() && deg <= 1<<16:
		s = k2Shape{kind: k2Pow2, hpv: 1, deg: deg}
	case regular && deg < 1<<16:
		s = k2Shape{kind: k2Regular, hpv: 1, deg: deg}
	default:
		return k2Shape{kind: k2Fallback, hpv: 2, adj: adj, offs: g.Offsets()}
	}
	if s.adjN = g.AdjPow2Narrow(); s.adjN == nil {
		s.adj = g.AdjPow2()
	}
	return s
}

// fusedPow2K2 and fusedRegularK2 are the bitset-driver fast paths for
// the two regular shapes: they sample each frontier vertex directly as
// its bit is decoded, never materializing a vertex list. The round's
// randomness is prefilled into draws by the driver (one 32-bit half per
// vertex, ascending vertex order), so the loops carry no chunk
// bookkeeping at all; all adjacency, mark, and draw accesses are masked
// against power-of-two lengths and compile without bounds checks. Both
// are generic over the adjacency element width so the driver can pass
// the uint16 copy (graph.AdjPow2Narrow) when vertex ids fit — halving
// the footprint of the gather that dominates the loop.
func fusedPow2K2[A int32 | uint16](adj []A, deg int32, mark []byte, words []uint64, draws []uint32) {
	mask := int(uint32(deg - 1))
	dg := int(deg)
	mm, am, dm := len(mark)-1, len(adj)-1, len(draws)-1
	if mm < 0 || am < 0 || dm < 0 {
		return
	}
	h := 0 // 32-bit halves consumed so far (one per vertex)
	for wi, w := range words {
		base := wi << 6
		// The two 32-bit halves run as independent find-first-set
		// chains, halving the serial w &= w-1 dependency on full words.
		lo, hi := uint32(w), uint32(w>>32)
		for lo != 0 {
			v := base + bits.TrailingZeros32(lo)
			lo &= lo - 1
			r := int(draws[h&dm])
			h++
			b := v * dg
			mark[int(adj[(b+(r&mask))&am])&mm] = 1
			mark[int(adj[(b+(r>>16&mask))&am])&mm] = 1
		}
		for hi != 0 {
			v := base + 32 + bits.TrailingZeros32(hi)
			hi &= hi - 1
			r := int(draws[h&dm])
			h++
			b := v * dg
			mark[int(adj[(b+(r&mask))&am])&mm] = 1
			mark[int(adj[(b+(r>>16&mask))&am])&mm] = 1
		}
	}
}

// fusedRegularK2 is fusedPow2K2 with fixed-point multiply-reuse
// sampling in place of bit-field masking.
func fusedRegularK2[A int32 | uint16](adj []A, deg int32, mark []byte, words []uint64, draws []uint32) {
	d := uint64(deg)
	dg := int(deg)
	mm, am, dm := len(mark)-1, len(adj)-1, len(draws)-1
	if mm < 0 || am < 0 || dm < 0 {
		return
	}
	h := 0 // 32-bit halves consumed so far (one per vertex)
	for wi, w := range words {
		base := wi << 6
		lo, hi := uint32(w), uint32(w>>32)
		for lo != 0 {
			v := base + bits.TrailingZeros32(lo)
			lo &= lo - 1
			p := uint64(draws[h&dm]) * d
			h++
			b := v * dg
			mark[int(adj[(b+int(p>>32))&am])&mm] = 1
			mark[int(adj[(b+int(uint64(uint32(p))*d>>32))&am])&mm] = 1
		}
		for hi != 0 {
			v := base + 32 + bits.TrailingZeros32(hi)
			hi &= hi - 1
			p := uint64(draws[h&dm]) * d
			h++
			b := v * dg
			mark[int(adj[(b+int(p>>32))&am])&mm] = 1
			mark[int(adj[(b+int(uint64(uint32(p))*d>>32))&am])&mm] = 1
		}
	}
}

// samplePow2K2 is the chunk sampler for regular graphs with
// power-of-two degree up to 2^16: base offsets are v·d (no offset-array
// loads) and both neighbor indices of a vertex come from disjoint bit
// fields of one 32-bit half-draw (exactly uniform). The body is unrolled
// four vertices (two words, eight samples) per iteration, and all
// adjacency and mark accesses are masked against power-of-two lengths
// (adj is Graph.AdjPow2 or Graph.AdjPow2Narrow, mark comes from
// AllocMark) so the hot loop carries no bounds checks. Like the fused
// kernels it is generic over the adjacency element width.
func samplePow2K2[A int32 | uint16](adj []A, deg int32, mark []byte, chunk []int32, draws []uint64) {
	mask := uint32(deg - 1)
	mm, am, dm := len(mark)-1, len(adj)-1, len(draws)-1
	if mm < 0 || am < 0 || dm < 0 {
		return
	}
	h := 0 // 32-bit halves consumed so far (one per vertex)
	for ; len(chunk) >= 4; chunk = chunk[4:] {
		wA, wB := draws[(h>>1)&dm], draws[(h>>1+1)&dm]
		h += 4
		r0, r1, r2, r3 := uint32(wA), uint32(wA>>32), uint32(wB), uint32(wB>>32)
		b0, b1, b2, b3 := chunk[0]*deg, chunk[1]*deg, chunk[2]*deg, chunk[3]*deg
		u0 := adj[int(b0+int32(r0&mask))&am]
		u1 := adj[int(b0+int32(r0>>16&mask))&am]
		u2 := adj[int(b1+int32(r1&mask))&am]
		u3 := adj[int(b1+int32(r1>>16&mask))&am]
		u4 := adj[int(b2+int32(r2&mask))&am]
		u5 := adj[int(b2+int32(r2>>16&mask))&am]
		u6 := adj[int(b3+int32(r3&mask))&am]
		u7 := adj[int(b3+int32(r3>>16&mask))&am]
		mark[int(u0)&mm] = 1
		mark[int(u1)&mm] = 1
		mark[int(u2)&mm] = 1
		mark[int(u3)&mm] = 1
		mark[int(u4)&mm] = 1
		mark[int(u5)&mm] = 1
		mark[int(u6)&mm] = 1
		mark[int(u7)&mm] = 1
	}
	for _, v := range chunk {
		r := uint32(draws[(h>>1)&dm] >> (uint(h&1) * 32))
		h++
		b := v * deg
		mark[int(adj[int(b+int32(r&mask))&am])&mm] = 1
		mark[int(adj[int(b+int32(r>>16&mask))&am])&mm] = 1
	}
}

// sampleRegularK2 is the chunk sampler for regular graphs of any
// degree below 2^16: fixed-point multiply-reuse sampling (the inlined
// form of rng.Block.PairIndex) with base offsets v·d, one 32-bit half
// per vertex, unrolled four vertices per iteration. As in samplePow2K2,
// adjacency (either padded table) and mark accesses are masked against
// power-of-two lengths, so the hot loop carries no bounds checks.
func sampleRegularK2[A int32 | uint16](adj []A, deg int32, mark []byte, chunk []int32, draws []uint64) {
	d := uint64(deg)
	mm, am, dm := len(mark)-1, len(adj)-1, len(draws)-1
	if mm < 0 || am < 0 || dm < 0 {
		return
	}
	h := 0 // 32-bit halves consumed so far (one per vertex)
	for ; len(chunk) >= 4; chunk = chunk[4:] {
		wA, wB := draws[(h>>1)&dm], draws[(h>>1+1)&dm]
		h += 4
		b0, b1, b2, b3 := chunk[0]*deg, chunk[1]*deg, chunk[2]*deg, chunk[3]*deg
		p0 := uint64(uint32(wA)) * d
		p1 := (wA >> 32) * d
		p2 := uint64(uint32(wB)) * d
		p3 := (wB >> 32) * d
		u0 := adj[int(b0+int32(p0>>32))&am]
		u1 := adj[int(b0+int32(uint64(uint32(p0))*d>>32))&am]
		u2 := adj[int(b1+int32(p1>>32))&am]
		u3 := adj[int(b1+int32(uint64(uint32(p1))*d>>32))&am]
		u4 := adj[int(b2+int32(p2>>32))&am]
		u5 := adj[int(b2+int32(uint64(uint32(p2))*d>>32))&am]
		u6 := adj[int(b3+int32(p3>>32))&am]
		u7 := adj[int(b3+int32(uint64(uint32(p3))*d>>32))&am]
		mark[int(u0)&mm] = 1
		mark[int(u1)&mm] = 1
		mark[int(u2)&mm] = 1
		mark[int(u3)&mm] = 1
		mark[int(u4)&mm] = 1
		mark[int(u5)&mm] = 1
		mark[int(u6)&mm] = 1
		mark[int(u7)&mm] = 1
	}
	for _, v := range chunk {
		r := uint32(draws[(h>>1)&dm] >> (uint(h&1) * 32))
		h++
		b := v * deg
		p := uint64(r) * d
		mark[int(adj[int(b+int32(p>>32))&am])&mm] = 1
		mark[int(adj[int(b+int32(uint64(uint32(p))*d>>32))&am])&mm] = 1
	}
}

// sampleFallbackK2 is the irregular chunk sampler: per-vertex
// degree and offset loads with fixed-point multiply sampling, one full
// word (two 32-bit halves) per vertex.
func sampleFallbackK2(adj []int32, offs []int32, mark []byte, chunk []int32, draws []uint64) {
	mm, dm := len(mark)-1, len(draws)-1
	if mm < 0 || dm < 0 {
		return
	}
	for i, v := range chunk {
		base := offs[v]
		d := uint64(offs[v+1] - base)
		if d == 0 {
			panic("core: dense kernel reached an isolated vertex")
		}
		w := draws[i&dm]
		mark[int(adj[base+int32(uint64(uint32(w))*d>>32)])&mm] = 1
		mark[int(adj[base+int32((w>>32)*d>>32)])&mm] = 1
	}
}

// sampleFrontierGeneralK is the dense sampling loop for branching
// factors other than 2: per-shape draw schemes match the K=2 paths
// (mask or multiply), one 32-bit half per sample.
func sampleFrontierGeneralK(g *graph.Graph, active []int32, k int, mark []byte, blk *rng.Block) {
	adj, offs := g.Adj(), g.Offsets()
	regular, deg := g.IsRegular()
	if regular && deg == 0 && len(active) > 0 {
		panic("core: dense kernel on a graph with no edges")
	}
	switch {
	case regular && g.DegreeIsPow2():
		mask := uint32(deg - 1)
		for _, v := range active {
			base := v * deg
			for j := 0; j < k; j++ {
				mark[adj[base+int32(blk.Next32()&mask)]] = 1
			}
		}
	case regular:
		d := uint64(deg)
		for _, v := range active {
			base := v * deg
			for j := 0; j < k; j++ {
				mark[adj[base+int32(uint64(blk.Next32())*d>>32)]] = 1
			}
		}
	default:
		for _, v := range active {
			base := offs[v]
			d := uint64(offs[v+1] - base)
			if d == 0 {
				panic("core: dense kernel reached an isolated vertex")
			}
			for j := 0; j < k; j++ {
				mark[adj[base+int32(uint64(blk.Next32())*d>>32)]] = 1
			}
		}
	}
}

// stepDense executes one round with the dense kernel. Semantics match
// the sparse Step exactly (active set, coverage and message accounting); only the randomness consumption order and the ordering
// of the materialized frontier (ascending rather than insertion order)
// differ. size is the current frontier size (list length or bitset
// population).
func (w *Walk) stepDense(size int) {
	if w.blk == nil {
		w.blk = rng.NewBlock(w.rnd)
	}
	if w.mark == nil {
		w.mark = AllocMark(w.g.N())
	}
	if w.branch != nil {
		w.sampleBranching()
	} else {
		k := w.cfg.K
		w.messages += int64(k) * int64(size)
		if w.activeIsBits {
			sampleFrontierBits(w.g, w.activeSet, k, w.mark, w.blk, &w.active, &w.draws, &w.draws32)
		} else {
			sampleFrontierDense(w.g, w.active, k, w.mark, w.blk, &w.draws)
		}
	}
	// Gather the sampled marks into the frontier bitset (overwriting last
	// round's bits, so no ping-pong or clear pass is needed) and merge
	// coverage word-parallel.
	w.nActive = w.activeSet.FromMarks(w.mark[:w.g.N()])
	w.nCovered += w.covered.UnionCount(w.activeSet)
	w.activeIsBits = true
	w.active = w.active[:0]
	w.steps++
}

// sampleBranching is the dense sampling loop under a branching
// function: it visits the frontier in ascending order (materializing a
// bitset-resident one), takes each vertex's factor from the walk's
// BranchingFunc (which draws from the walk's Source, not the block),
// then each of its neighbors from one 32-bit block draw by fixed-point
// multiply, on every graph shape.
func (w *Walk) sampleBranching() {
	if w.activeIsBits {
		w.active = w.activeSet.AppendTo(w.active[:0])
	}
	adj, offs, mark, blk := w.g.Adj(), w.g.Offsets(), w.mark, w.blk
	for _, v := range w.active {
		k := w.factor(v)
		w.messages += int64(k)
		base := offs[v]
		d := uint64(offs[v+1] - base)
		if d == 0 {
			panic("core: dense kernel reached an isolated vertex")
		}
		for j := 0; j < k; j++ {
			mark[adj[base+int32(uint64(blk.Next32())*d>>32)]] = 1
		}
	}
}

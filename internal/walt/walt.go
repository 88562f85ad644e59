// Package walt implements the Walt process of Section 4: a fixed
// population of totally-ordered pebbles performing coalescence-limited
// random walks. Walt is the analysis device whose cover time
// stochastically dominates the cobra walk's (Lemma 10), which lets the
// paper bound cobra cover times through a process whose pebbles can be
// tracked individually.
//
// Rules per (non-lazy) round, for each vertex v holding pebbles:
//
//  1. If one or two pebbles are at v, each independently moves to a
//     neighbor chosen uniformly at random.
//  2. If three or more pebbles are at v, the two lowest-order pebbles
//     each pick an independent uniform neighbor (u and w, possibly
//     equal); every remaining pebble at v flips a fair coin and moves to
//     u or w.
//
// The process is made lazy (the paper's technical requirement): each
// round, with probability 1/2 nothing moves. Laziness is configurable
// for ablation experiments.
package walt

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Config parameterizes a Walt process.
type Config struct {
	// Lazy selects the paper's lazy variant: with probability 1/2 a
	// round is skipped entirely.
	Lazy bool
	// MaxSteps caps runs; zero selects a generous default.
	MaxSteps int
	// DenseTheta is the kernel-switch density, mirroring
	// core.Config.DenseTheta: a round whose occupied-vertex count
	// exceeds N/θ runs the count-based dense kernel (see stepDense),
	// which is distribution-equivalent to the sparse rules but not
	// byte-identical (it consumes randomness in a different order and
	// batches rule-2 coin flips). Zero selects core.DefaultDenseTheta;
	// negative pins the byte-stable sparse kernel on every round.
	DenseTheta int
}

// Process is a running Walt process. Pebble i's order is its index:
// lower index = lower order (higher priority under rule 2).
//
// The process runs in one of two representations. Sparse rounds keep
// pos authoritative and replay the per-pebble rules exactly (byte-stable
// for a fixed seed). Dense rounds — taken when the occupied-vertex count
// exceeds the DenseTheta cutover — keep only per-vertex pebble counts:
// within a bucket the pebbles are exchangeable (rule 1 moves each
// independently; rule 2 routes every non-designated pebble by a fair
// coin), so the vertex-count process is a Markov chain with the same law
// as the label-marginal of the sparse rules, and cover/hitting times are
// distribution-identical. Pebble labels are rematerialized on demand in
// ascending vertex order.
type Process struct {
	g   *graph.Graph
	cfg Config
	rnd *rng.Source
	blk *rng.Block // batched neighbor draws and coalescence coin flips

	pos      []int32 // pebble index -> vertex
	head     []int32 // vertex -> first pebble index in bucket, -1 if none
	next     []int32 // pebble index -> next pebble in same bucket
	occupied []int32 // vertices with at least one pebble this round
	covered  *bitset.Set
	nCovered int
	steps    int

	denseCut  int  // dense kernel when occCount > denseCut
	occCount  int  // occupied-vertex count driving the kernel switch
	denseMode bool // cnt/occ authoritative (true) vs pos (false)
	posDirty  bool // dense mode: pos is stale relative to cnt

	cnt     []int32     // vertex -> pebble count (dense mode)
	cntNext []int32     // next round's counts under construction
	occ     *bitset.Set // vertices with cnt > 0
	occNext *bitset.Set // next round's occupancy
	mark    []byte      // dense-round destination marks, all-zero between rounds
}

// New creates a Walt process with pebble i starting at positions[i].
// Pebble order equals slice index.
func New(g *graph.Graph, positions []int32, cfg Config, rnd *rng.Source) *Process {
	if len(positions) == 0 {
		panic("walt: need at least one pebble")
	}
	if g.MinDegree() == 0 && g.N() > 1 {
		panic("walt: graph has an isolated vertex")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200*g.N()*g.N() + 100000
	}
	p := &Process{
		g:        g,
		cfg:      cfg,
		rnd:      rnd,
		blk:      rng.NewBlock(rnd),
		pos:      append([]int32(nil), positions...),
		head:     make([]int32, g.N()),
		next:     make([]int32, len(positions)),
		occupied: make([]int32, 0, len(positions)),
		covered:  bitset.New(g.N()),
		denseCut: core.DenseCutoff(g.N(), cfg.DenseTheta),
	}
	for i := range p.head {
		p.head[i] = -1
	}
	for _, v := range positions {
		if v < 0 || v >= int32(g.N()) {
			panic(fmt.Sprintf("walt: pebble position %d out of range", v))
		}
		if !p.covered.TestAndAdd(int(v)) {
			p.nCovered++
		}
	}
	p.occCount = p.nCovered // covered == distinct start vertices here
	return p
}

// NewAtVertex creates a Walt process with count pebbles all at start,
// matching the Theorem 8 setup (δn pebbles at one arbitrary vertex).
func NewAtVertex(g *graph.Graph, count int, start int32, cfg Config, rnd *rng.Source) *Process {
	positions := make([]int32, count)
	for i := range positions {
		positions[i] = start
	}
	return New(g, positions, cfg, rnd)
}

// Pebbles returns the number of pebbles (invariant over time).
func (p *Process) Pebbles() int { return len(p.pos) }

// Steps returns the number of rounds executed (lazy skips count).
func (p *Process) Steps() int { return p.steps }

// CoveredCount returns the number of distinct vertices visited.
func (p *Process) CoveredCount() int { return p.nCovered }

// Covered reports whether a pebble has visited v.
func (p *Process) Covered(v int32) bool { return p.covered.Contains(int(v)) }

// Positions returns the current pebble positions; the slice aliases
// internal state and must not be modified. After a dense round, pebble
// identities are exchangeable: positions are materialized in ascending
// vertex order, so per-index trajectories are only meaningful under
// sparse-pinned configs (DenseTheta < 0).
func (p *Process) Positions() []int32 {
	if p.denseMode && p.posDirty {
		p.materialize()
		p.posDirty = false
	}
	return p.pos
}

// materialize rebuilds pos from the dense per-vertex counts, assigning
// pebble indices in ascending vertex order. It does not modify the
// dense state.
func (p *Process) materialize() {
	idx := 0
	cnt := p.cnt
	p.occ.ForEach(func(v int) {
		for j := int32(0); j < cnt[v]; j++ {
			p.pos[idx] = int32(v)
			idx++
		}
	})
}

// MaxSteps returns the effective per-run round cap.
func (p *Process) MaxSteps() int { return p.cfg.MaxSteps }

// Step executes one round (which with probability 1/2 is skipped when
// lazy).
func (p *Process) Step() {
	p.steps++
	if p.cfg.Lazy && p.rnd.Bool() {
		return
	}
	if p.occCount > p.denseCut {
		p.stepDense()
		return
	}
	if p.denseMode {
		// Hand the authoritative state back to pos: materialize labels
		// and zero the count array for the next sparse-to-dense switch.
		p.materialize()
		p.occ.ForEach(func(v int) { p.cnt[v] = 0 })
		p.denseMode = false
		p.posDirty = false
	}
	g := p.g
	// Bucket pebbles by vertex in ascending order: iterate in reverse
	// and prepend, so each bucket list starts with the lowest order.
	p.occupied = p.occupied[:0]
	for i := len(p.pos) - 1; i >= 0; i-- {
		v := p.pos[i]
		if p.head[v] == -1 {
			p.occupied = append(p.occupied, v)
		}
		p.next[i] = p.head[v]
		p.head[v] = int32(i)
	}
	for _, v := range p.occupied {
		first := p.head[v]
		second := p.next[first]
		deg := g.Degree(v)
		switch {
		case second == -1:
			// Rule 1, single pebble.
			p.move(first, g.Neighbor(v, p.blk.Index(deg)))
		case p.next[second] == -1:
			// Rule 1, two pebbles: both move independently.
			p.move(first, g.Neighbor(v, p.blk.Index(deg)))
			p.move(second, g.Neighbor(v, p.blk.Index(deg)))
		default:
			// Rule 2: the two lowest-order pebbles pick u and w; the
			// rest coin-flip between them.
			u := g.Neighbor(v, p.blk.Index(deg))
			w := g.Neighbor(v, p.blk.Index(deg))
			p.move(first, u)
			p.move(second, w)
			for i := p.next[second]; i != -1; i = p.next[i] {
				if p.blk.Bool() {
					p.move(i, u)
				} else {
					p.move(i, w)
				}
			}
		}
		p.head[v] = -1 // reset bucket for the next round
	}
	// The kernel switch uses this round's source-vertex count as its
	// occupancy estimate; it lags the true (destination) count by one
	// round, which is fine for a density heuristic.
	p.occCount = len(p.occupied)
}

// stepDense executes one non-lazy round on the count representation:
// per occupied vertex, rule 1 draws one or two neighbors; rule 2 draws
// u and w and routes the remaining c-2 pebbles by fair coins batched 64
// per word — the popcount of a masked draw is exactly the
// Binomial(c-2, 1/2) count moving to u. Destinations are recorded as
// count increments plus mark bytes, gathered into the occupancy bitset
// by one bitset.FromMarks pass; coverage merges word-parallel. Draws
// happen in ascending vertex order, so a dense round's stream differs
// from the sparse kernel's (distribution-equivalent, not byte-stable).
func (p *Process) stepDense() {
	g := p.g
	n := g.N()
	if p.cnt == nil {
		// Power-of-two lengths let the round bodies index with a mask,
		// which the compiler proves in-bounds (no per-access checks).
		sz := len(core.AllocMark(n))
		p.cnt = make([]int32, sz)
		p.cntNext = make([]int32, sz)
		p.occ = bitset.New(n)
		p.occNext = bitset.New(n)
		p.mark = core.AllocMark(n)
	}
	if !p.denseMode {
		p.occ.Clear()
		for _, v := range p.pos {
			p.cnt[v]++
			p.occ.Add(int(v))
		}
		p.denseMode = true
	}
	if reg, deg := g.IsRegular(); reg && deg > 0 && deg < 1<<16 {
		p.denseRoundRegular(deg)
	} else {
		p.denseRoundGeneral()
	}
	p.occCount = p.occNext.FromMarks(p.mark[:n])
	p.nCovered += p.covered.UnionCount(p.occNext)
	p.cnt, p.cntNext = p.cntNext, p.cnt
	p.occ, p.occNext = p.occNext, p.occ
	p.posDirty = true
}

// denseRoundRegular is the dense round body for regular graphs with
// degree < 2^16: the degree is hoisted, neighbors come from the
// power-of-two-padded adjacency with masked (bounds-check-free) loads,
// and a vertex holding two or more pebbles draws both designated
// destinations from a single 32-bit half by fixed-point multiply reuse
// (the scheme specified by rng.Block.PairIndex).
func (p *Process) denseRoundRegular(deg int32) {
	blk := p.blk
	cnt, cntNext, mark := p.cnt, p.cntNext, p.mark
	cm, nm, mm := len(cnt)-1, len(cntNext)-1, len(mark)-1
	adj := p.g.AdjPow2()
	am := len(adj) - 1
	if cm < 0 || nm < 0 || mm < 0 || am < 0 {
		return
	}
	d := uint64(deg)
	// One 64-bit word serves two occupied vertices (low half first);
	// keeping the pending half in locals avoids Block's per-call
	// buffered-half bookkeeping. A leftover half at round end is
	// discarded, which is fine: dense rounds promise distribution
	// equivalence, not byte stability.
	var buf uint64
	var has bool
	for wi, w := range p.occ.Words() {
		base := int32(wi << 6)
		for w != 0 {
			v := int(base+int32(bits.TrailingZeros64(w))) & cm
			w &= w - 1
			c := cnt[v]
			cnt[v] = 0
			var r32 uint32
			if has {
				r32 = uint32(buf >> 32)
				has = false
			} else {
				buf = blk.Next()
				r32 = uint32(buf)
				has = true
			}
			b := int32(v) * deg
			r := uint64(r32) * d
			u := int(adj[int(b+int32(r>>32))&am])
			if c == 1 {
				cntNext[u&nm]++
				mark[u&mm] = 1
				continue
			}
			t := int(adj[int(b+int32(uint64(uint32(r))*d>>32))&am])
			cntNext[u&nm]++
			cntNext[t&nm]++
			mark[u&mm] = 1
			mark[t&mm] = 1
			if c == 2 {
				continue
			}
			rest := c - 2
			toU := int32(0)
			for ; rest >= 64; rest -= 64 {
				toU += int32(bits.OnesCount64(blk.Next()))
			}
			if rest > 0 {
				toU += int32(bits.OnesCount64(blk.Next() & (1<<uint(rest) - 1)))
			}
			cntNext[u&nm] += toU
			cntNext[t&nm] += c - 2 - toU
		}
	}
}

// denseRoundGeneral is the dense round body for irregular graphs (and
// degrees >= 2^16): per-vertex degrees from the offset array, one
// 32-bit half per neighbor draw.
func (p *Process) denseRoundGeneral() {
	g := p.g
	blk := p.blk
	cnt, cntNext, mark := p.cnt, p.cntNext, p.mark
	for wi, w := range p.occ.Words() {
		base := int32(wi << 6)
		for w != 0 {
			v := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			c := cnt[v]
			cnt[v] = 0
			deg := g.Degree(v)
			u := g.Neighbor(v, blk.Index(deg))
			if c == 1 {
				cntNext[u]++
				mark[u] = 1
				continue
			}
			t := g.Neighbor(v, blk.Index(deg))
			cntNext[u]++
			cntNext[t]++
			mark[u] = 1
			mark[t] = 1
			if c == 2 {
				continue
			}
			rest := c - 2
			toU := int32(0)
			for ; rest >= 64; rest -= 64 {
				toU += int32(bits.OnesCount64(blk.Next()))
			}
			if rest > 0 {
				toU += int32(bits.OnesCount64(blk.Next() & (1<<uint(rest) - 1)))
			}
			cntNext[u] += toU
			cntNext[t] += c - 2 - toU
		}
	}
}

func (p *Process) move(pebble, to int32) {
	p.pos[pebble] = to
	if !p.covered.TestAndAdd(int(to)) {
		p.nCovered++
	}
}

// CoverTime steps until every vertex is covered, returning the number of
// rounds; ok is false if MaxSteps is exceeded.
func (p *Process) CoverTime() (int, bool) {
	for p.nCovered < p.g.N() {
		if p.steps >= p.cfg.MaxSteps {
			return p.steps, false
		}
		p.Step()
	}
	return p.steps, true
}

// HittingTime steps until target is covered; ok is false if MaxSteps is
// exceeded.
func (p *Process) HittingTime(target int32) (int, bool) {
	for !p.covered.Contains(int(target)) {
		if p.steps >= p.cfg.MaxSteps {
			return p.steps, false
		}
		p.Step()
	}
	return p.steps, true
}

// CoverTimes runs trials independent Walt processes with count pebbles
// at start and returns the sample of cover times. An error is returned
// if any trial exceeds the step cap.
func CoverTimes(g *graph.Graph, count int, start int32, cfg Config, trials int, seed uint64) ([]float64, error) {
	out := make([]float64, trials)
	for i := 0; i < trials; i++ {
		p := NewAtVertex(g, count, start, cfg, rng.NewStream(seed, i))
		steps, ok := p.CoverTime()
		if !ok {
			return nil, fmt.Errorf("walt: trial %d exceeded step cap on %s", i, g)
		}
		out[i] = float64(steps)
	}
	return out, nil
}

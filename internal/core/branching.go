package core

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// BranchingFunc decides how many neighbors an active vertex samples in a
// given round. The paper (§1) notes the variation "where the branching
// varied based on the vertex or the time step, or was governed by a
// random distribution" as unstudied; this generalized engine implements
// it. The returned factor must be >= 1.
type BranchingFunc func(v int32, step int, src *rng.Source) int

// ConstantBranching returns the fixed-k branching of the standard
// k-cobra walk.
func ConstantBranching(k int) BranchingFunc {
	if k < 1 {
		panic("core: branching factor must be >= 1")
	}
	return func(int32, int, *rng.Source) int { return k }
}

// BernoulliBranching branches k2 ways with probability p and k1 ways
// otherwise, modeling a random per-pebble branching distribution with
// mean p*k2 + (1-p)*k1.
func BernoulliBranching(k1, k2 int, p float64) BranchingFunc {
	if k1 < 1 || k2 < 1 || p < 0 || p > 1 {
		panic("core: invalid Bernoulli branching parameters")
	}
	return func(_ int32, _ int, src *rng.Source) int {
		if src.Float64() < p {
			return k2
		}
		return k1
	}
}

// DegreeCappedBranching branches min(k, d(v)) ways: high-degree vertices
// use the full budget while low-degree vertices avoid redundant samples
// (sampling a degree-1 vertex twice always coalesces).
func DegreeCappedBranching(g *graph.Graph, k int) BranchingFunc {
	if k < 1 {
		panic("core: branching factor must be >= 1")
	}
	return func(v int32, _ int, _ *rng.Source) int {
		if d := int(g.Degree(v)); d < k {
			return d
		}
		return k
	}
}

// PeriodicBranching alternates between k on every period-th round and 1
// otherwise, modeling bursty dissemination budgets.
func PeriodicBranching(k, period int) BranchingFunc {
	if k < 1 || period < 1 {
		panic("core: invalid periodic branching parameters")
	}
	return func(_ int32, step int, _ *rng.Source) int {
		if step%period == 0 {
			return k
		}
		return 1
	}
}

// GeneralWalk is a cobra walk whose branching factor may vary per
// vertex, per round, or randomly. It shares the frontier engine of Walk.
type GeneralWalk struct {
	g        *graph.Graph
	branch   BranchingFunc
	maxSteps int
	rnd      *rng.Source
	blk      *rng.Block // buffered draws for the dense kernel
	mark     []byte     // dense-round membership marks, all-zero between rounds

	denseCut int // run the dense kernel when len(active) > denseCut
	active   []int32
	next     []int32
	nextSet  *bitset.Set
	covered  *bitset.Set
	nCovered int
	steps    int
}

// NewGeneral constructs a generalized cobra walk. maxSteps of zero
// selects DefaultMaxSteps.
func NewGeneral(g *graph.Graph, branch BranchingFunc, maxSteps int, rnd *rng.Source) *GeneralWalk {
	if branch == nil {
		panic("core: nil branching function")
	}
	if g.N() == 0 {
		panic("core: empty graph")
	}
	if g.MinDegree() == 0 && g.N() > 1 {
		panic("core: graph has an isolated vertex")
	}
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps(g.N())
	}
	return &GeneralWalk{
		g:        g,
		branch:   branch,
		maxSteps: maxSteps,
		rnd:      rnd,
		denseCut: DenseCutoff(g.N(), 0),
		active:   make([]int32, 0, g.N()),
		next:     make([]int32, 0, g.N()),
		nextSet:  bitset.New(g.N()),
		covered:  bitset.New(g.N()),
	}
}

// Reset restarts the walk with a single pebble at start.
func (w *GeneralWalk) Reset(start int32) {
	w.active = w.active[:0]
	w.next = w.next[:0]
	w.nextSet.Clear()
	w.covered.Clear()
	w.nCovered = 1
	w.steps = 0
	if w.blk != nil {
		w.blk.Reset(w.rnd)
	}
	w.covered.Add(int(start))
	w.active = append(w.active, start)
}

// Steps returns the number of rounds executed since the last reset.
func (w *GeneralWalk) Steps() int { return w.steps }

// CoveredCount returns the number of distinct vertices covered.
func (w *GeneralWalk) CoveredCount() int { return w.nCovered }

// ActiveCount returns the current active-set size.
func (w *GeneralWalk) ActiveCount() int { return len(w.active) }

// AppendActive appends the current active vertices to dst and returns
// the extended slice.
func (w *GeneralWalk) AppendActive(dst []int32) []int32 {
	return append(dst, w.active...)
}

// MaxSteps returns the effective per-run round cap.
func (w *GeneralWalk) MaxSteps() int { return w.maxSteps }

// Step executes one round with per-vertex branching factors. Like
// Walk.Step it switches to the dense word-parallel kernel when the
// frontier exceeds N/DefaultDenseTheta.
func (w *GeneralWalk) Step() {
	if len(w.active) > w.denseCut {
		w.stepDense()
		return
	}
	g := w.g
	for _, v := range w.active {
		deg := g.Degree(v)
		k := w.branch(v, w.steps, w.rnd)
		if k < 1 {
			panic("core: branching function returned < 1")
		}
		for j := 0; j < k; j++ {
			u := g.Neighbor(v, w.rnd.Int31n(deg))
			if !w.nextSet.TestAndAdd(int(u)) {
				w.next = append(w.next, u)
				if !w.covered.TestAndAdd(int(u)) {
					w.nCovered++
				}
			}
		}
	}
	w.active, w.next = w.next, w.active[:0]
	for _, u := range w.active {
		w.nextSet.Remove(int(u))
	}
	w.steps++
}

// RunUntilCovered steps until all vertices are covered; ok is false if
// the step cap is exceeded.
func (w *GeneralWalk) RunUntilCovered() (steps int, ok bool) {
	n := w.g.N()
	for w.nCovered < n {
		if w.steps >= w.maxSteps {
			return w.steps, false
		}
		w.Step()
	}
	return w.steps, true
}

// RunUntilHit steps until target is covered; ok is false if the step cap
// is exceeded.
func (w *GeneralWalk) RunUntilHit(target int32) (steps int, ok bool) {
	for !w.covered.Contains(int(target)) {
		if w.steps >= w.maxSteps {
			return w.steps, false
		}
		w.Step()
	}
	return w.steps, true
}

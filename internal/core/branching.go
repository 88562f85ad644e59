package core

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// BranchingFunc decides how many neighbors an active vertex samples in a
// given round. The paper (§1) notes the variation "where the branching
// varied based on the vertex or the time step, or was governed by a
// random distribution" as unstudied; NewGeneral's walk implements it.
// The returned factor must be >= 1.
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

// NewGeneral constructs a generalized cobra walk: a Walk whose every
// active vertex v samples branch(v, round, src) neighbors per round, the
// factor drawn before v's neighbors (from the walk's Source, if branch
// draws at all). maxSteps of zero selects DefaultMaxSteps. The walk
// switches to the dense kernel like any Walk at the default θ.
func NewGeneral(g *graph.Graph, branch BranchingFunc, maxSteps int, rnd *rng.Source) *Walk {
	if branch == nil {
		panic("core: nil branching function")
	}
	w := New(g, Config{K: 1, MaxSteps: maxSteps}, rnd)
	w.branch = branch
	return w
}

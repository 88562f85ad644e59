package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestGeneralStreamGolden pins the generalized walk's draw stream round
// by round: an FNV-1a digest over every round's frontier, in
// AppendActive order, and covered count up to cover, plus the cover
// round itself. The values were recorded before the generalized walk
// shared Walk's engine; the cases reach the branching dense loop (the
// pow2-regular and Bernoulli cases), the per-round and per-vertex
// factor paths, and the plain sparse loop.
func TestGeneralStreamGolden(t *testing.T) {
	star := graph.Star(40)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		branch BranchingFunc
		seed   uint64
		steps  int
		digest uint64
	}{
		{"constant-k2-pow2-regular", graph.MustRandomRegular(1024, 4, 3), ConstantBranching(2), 5, 22, 0x81e37bc1e589e498},
		{"bernoulli-regular-1000-5", graph.MustRandomRegular(1000, 5, 1), BernoulliBranching(1, 3, 0.4), 6, 26, 0x6ce2da54a03bf224},
		{"periodic-grid", graph.Grid(2, 20), PeriodicBranching(3, 2), 7, 68, 0x3c0235138869dd62},
		{"degree-capped-star", star, DegreeCappedBranching(star, 2), 8, 139, 0x5288b530a6158ac5},
		{"constant-k3-cycle", graph.Cycle(200), ConstantBranching(3), 9, 126, 0x99566e71f7b81841},
	} {
		w := NewGeneral(tc.g, tc.branch, 0, rng.New(tc.seed))
		w.Reset(0)
		var h uint64 = 1469598103934665603
		mix := func(x uint64) { h ^= x; h *= 1099511628211 }
		var f []int32
		for w.CoveredCount() < tc.g.N() && w.Steps() < w.MaxSteps() {
			w.Step()
			f = w.AppendActive(f[:0])
			mix(uint64(len(f)))
			for _, v := range f {
				mix(uint64(v))
			}
			mix(uint64(w.CoveredCount()))
		}
		if w.Steps() != tc.steps || h != tc.digest {
			t.Errorf("%s: cover %d digest %#x, golden %d %#x", tc.name, w.Steps(), h, tc.steps, tc.digest)
		}
	}
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E1GridCover reproduces Theorem 3: the 2-cobra walk covers the grid
// [0,n]^d in O(n) rounds. For each dimension d we sweep the side length,
// fit the power-law exponent of mean cover time versus side, and compare
// with the simple random walk, whose cover time on grids is superlinear
// in the side length (≈ side² for d = 1, 2 up to log factors).
func E1GridCover(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E1",
		Claim: "2-cobra cover time on [0,n]^d is O(n) (linear in side length)",
	}
	type sweep struct {
		d     int
		sides []int
	}
	var sweeps []sweep
	trials := 12
	if scale == Full {
		trials = 40
		sweeps = []sweep{
			{1, []int{64, 128, 256, 512, 1024}},
			{2, []int{8, 12, 16, 24, 32, 48, 64}},
			{3, []int{4, 6, 8, 12, 16}},
		}
	} else {
		sweeps = []sweep{
			{1, []int{32, 64, 128}},
			{2, []int{8, 12, 16, 24}},
			{3, []int{4, 6, 8}},
		}
	}
	table := sim.NewTable("E1: 2-cobra cover time on grids",
		"d", "side", "n", "cover mean", "95% CI", "cover max", "cover/side")
	for si, sw := range sweeps {
		var points []sim.Point
		for _, side := range sw.sides {
			g := graph.Grid(sw.d, side)
			sample, err := sim.RunTrialsPooled(trials, rng.Stream(seed, si*1000+side),
				core.Trials(g, core.Config{K: 2}, []int32{0}, -1))
			if err != nil {
				return nil, err
			}
			mean, ci, max := sim.SummaryCells(sample)
			table.AddRowf(sw.d, side, g.N(), mean, ci, max,
				stats.Mean(sample)/float64(side))
			points = append(points, sim.Point{X: float64(side), Sample: sample})
		}
		fit := sim.FitExponent(points)
		res.addFinding("d=%d: cover ~ side^%.2f (theory: exponent 1; R²=%.3f)",
			sw.d, fit.Exponent, fit.R2)
	}
	res.Tables = append(res.Tables, table)

	// Baseline: the simple random walk on the 2-D grid scales like
	// side² (up to logs) — its exponent should be near 2.
	rwSides := []int{8, 12, 16, 24}
	rwTrials := 8
	if scale == Full {
		rwSides = []int{8, 12, 16, 24, 32}
		rwTrials = 20
	}
	rwTable := sim.NewTable("E1 baseline: simple random walk on 2-D grids",
		"side", "n", "cover mean", "95% CI")
	var rwPoints []sim.Point
	for _, side := range rwSides {
		g := graph.Grid(2, side)
		sample, err := sim.RunTrialsPooled(rwTrials, rng.Stream(seed, 777+side),
			core.Trials(g, core.Config{K: 1, DenseTheta: -1, MaxSteps: 100 * g.N() * g.N()}, []int32{0}, -1))
		if err != nil {
			return nil, err
		}
		mean, ci, _ := sim.SummaryCells(sample)
		rwTable.AddRowf(side, g.N(), mean, ci)
		rwPoints = append(rwPoints, sim.Point{X: float64(side), Sample: sample})
	}
	rwFit := sim.FitExponent(rwPoints)
	res.addFinding("baseline RW d=2: cover ~ side^%.2f (theory: ≈2 up to logs)", rwFit.Exponent)
	res.Tables = append(res.Tables, rwTable)
	return res, nil
}

// E2GridDrift reproduces the Lemma 2 two-step drift computation on
// [0,n]²: starting one pebble in a coordinate-matched interior state
// (the worst case), run two full 2-cobra rounds and track the change of
// X, the minimum Manhattan distance over all active pebbles to the
// target. The paper computes Pr[X decreases by 2] = 49/256 (it only
// requires ≥, pessimistically discarding pebbles) and Pr[X increases by
// 2] ≤ 41/256, giving negative two-step drift. We also measure the
// pessimistic single-pebble selection chain of Theorem 3, whose one-step
// decrease rate matches the paper's 7/16 bound construction.
func E2GridDrift(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E2",
		Claim: "two-step drift of the closest cobra pebble on [0,n]² is negative (Lemma 2)",
	}
	rounds := 100000
	if scale == Full {
		rounds = 400000
	}
	// Two full cobra rounds from a coordinate-matched interior state.
	// The grid is large enough that the boundary is never reached in two
	// rounds and the pebble count stays ≤ 4, so distance bookkeeping is
	// exact.
	const side = 64
	const zStart = 20 // matched: z = (0, 20), interior on a 64² grid
	g := graph.Grid(2, side)
	start := graph.GridVertex(side, []int{32, 32})
	target := graph.GridVertex(side, []int{32, 32 - zStart})
	var down2, up2, flat int
	w := core.New(g, core.Config{K: 2}, rng.New(rng.Stream(seed, 1)))
	var buf []int32
	minDist := func() int {
		buf = w.AppendActive(buf[:0])
		best := 1 << 30
		for _, v := range buf {
			if d := graph.GridDistance(2, side, v, target); d < best {
				best = d
			}
		}
		return best
	}
	for i := 0; i < rounds; i++ {
		w.Reset(start)
		before := minDist()
		w.Step()
		w.Step()
		switch minDist() - before {
		case -2:
			down2++
		case 2:
			up2++
		case 0:
			flat++
		}
	}
	pDown := float64(down2) / float64(rounds)
	pUp := float64(up2) / float64(rounds)
	table := sim.NewTable("E2: two-step transitions of the closest-pebble distance, matched interior state",
		"quantity", "measured", "paper value")
	table.AddRowf("Pr[X_{t+2}-X_t = -2]", pDown, fmt.Sprintf("≥ %.4f (49/256)", 49.0/256))
	table.AddRowf("Pr[X_{t+2}-X_t = +2]", pUp, fmt.Sprintf("≤ %.4f (41/256)", 41.0/256))
	table.AddRowf("Pr[X_{t+2}-X_t = 0]", float64(flat)/float64(rounds), "rest")
	table.AddRowf("two-step drift E[ΔX]", 2*(pUp-pDown), "negative")
	res.Tables = append(res.Tables, table)
	res.addFinding("measured two-step drift %.4f (negative, as Lemma 2 requires)", 2*(pUp-pDown))
	res.addFinding("decrease prob %.4f vs paper bound 49/256=%.4f; increase %.4f vs 41/256=%.4f",
		pDown, 49.0/256, pUp, 41.0/256)

	// The pessimistic single-pebble chain (Theorem 3 selection rules):
	// conditioned on a coordinate-matched state (z1 = 0), one step
	// decreases the distance with probability exactly 7/16 — the paper's
	// worst-case accounting. Measure it.
	tr := core.NewGridTracker(2, 4096, []int{2048, 2048}, []int{2048, 1024},
		rng.New(rng.Stream(seed, 3)))
	var trDown, trMatched int
	for i := 0; i < rounds; i++ {
		if tr.Z(1) < 16 {
			tr = core.NewGridTracker(2, 4096, []int{2048, 2048}, []int{2048, 1024},
				rng.New(rng.Stream(seed, 4+i)))
		}
		matched := tr.Z(0) == 0
		before := tr.TotalZ()
		tr.Step()
		if matched {
			trMatched++
			if tr.TotalZ() < before {
				trDown++
			}
		}
	}
	res.addFinding("pessimistic tracker matched-state decrease rate %.4f (paper's worst case: 7/16=%.4f)",
		float64(trDown)/float64(trMatched), 7.0/16)

	// Second view: full 2-cobra walk on a grid — the closest-pebble
	// distance X_t to a far target must shrink at a linear rate, which is
	// what makes cover time linear.
	sideSmall := 64
	if scale == Full {
		sideSmall = 128
	}
	gHit := graph.Grid(2, sideSmall)
	hitTarget := graph.GridVertex(sideSmall, []int{sideSmall - 1, sideSmall - 1})
	dist := graph.BFS(gHit, hitTarget)
	trials := 10
	if scale == Full {
		trials = 30
	}
	sample, err := sim.RunTrialsPooled(trials, rng.Stream(seed, 2),
		core.Trials(gHit, core.Config{K: 2}, []int32{0}, hitTarget))
	if err != nil {
		return nil, err
	}
	initDist := float64(dist[0])
	hitTable := sim.NewTable("E2: full 2-cobra walk, corner-to-corner hitting on 2-D grid",
		"side", "distance", "hit mean", "95% CI", "hit/dist")
	mean, ci, _ := sim.SummaryCells(sample)
	hitTable.AddRowf(sideSmall, initDist, mean, ci, stats.Mean(sample)/initDist)
	res.Tables = append(res.Tables, hitTable)
	res.addFinding("corner-to-corner hitting/distance ratio %.2f (O(1) per unit distance)",
		stats.Mean(sample)/initDist)
	return res, nil
}

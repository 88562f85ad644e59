package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E14Matthews reproduces Theorem 1 (the cobra-walk extension of
// Matthews' bound): the cover time is O(h_max log n) where h_max is the
// maximum pairwise hitting time. For each family we estimate h_max over
// a spread of vertex pairs, measure the cover time, and report
// cover/(h_max ln n), which the theorem bounds by a constant.
func E14Matthews(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E14",
		Claim: "cover time ≤ O(h_max log n) for cobra walks (Theorem 1)",
	}
	trials := 12
	hitTrials := 10
	if scale == Full {
		trials = 40
		hitTrials = 25
	}
	graphs := []*graph.Graph{
		graph.Cycle(128),
		graph.Grid(2, 12),
		graph.Star(128),
		graph.MustRandomRegular(256, 4, rng.Stream(seed, 1)),
	}
	if scale == Full {
		graphs = append(graphs,
			graph.Lollipop(32, 32),
			graph.Hypercube(8),
			graph.KAryTree(2, 7),
		)
	}
	table := sim.NewTable("E14: Matthews relation, cover vs h_max·ln n",
		"graph", "n", "h_max est", "cover mean", "h_max·ln n", "ratio")
	var ratios []float64
	for gi, g := range graphs {
		n := g.N()
		// Pair selection: extremes by BFS (farthest pair heuristic) plus
		// a few spread pairs, which is where h_max lives on these
		// families.
		dist := graph.BFS(g, 0)
		far := int32(0)
		for v, d := range dist {
			if d > dist[far] {
				far = int32(v)
			}
		}
		pairs := [][2]int32{
			{0, far}, {far, 0},
			{int32(n / 3), int32(2 * n / 3)},
			{far, int32(n / 2)},
		}
		hmax, err := core.MaxHittingTime(g, 2, pairs, hitTrials, rng.Stream(seed, 100+gi))
		if err != nil {
			return nil, err
		}
		cover, err := sim.RunTrialsPooled(trials, rng.Stream(seed, 200+gi),
			core.Trials(g, core.Config{K: 2}, []int32{0}, -1))
		if err != nil {
			return nil, err
		}
		bound := hmax * math.Log(float64(n))
		ratio := stats.Mean(cover) / bound
		ratios = append(ratios, ratio)
		table.AddRowf(g.Name(), n, hmax, stats.Mean(cover), bound, ratio)
	}
	res.Tables = append(res.Tables, table)
	res.addFinding("cover/(h_max ln n) ∈ [%.3f, %.3f] across families — bounded by a constant (Theorem 1)",
		minFloat(ratios), stats.MaxFloat(ratios))
	return res, nil
}

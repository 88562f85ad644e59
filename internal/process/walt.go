package process

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walt"
)

func init() {
	Register(waltProcess{base{
		name: "walt",
		doc:  "Walt coalescence-limited pebble process (Section 4): rounds for a fixed pebble population to cover the graph",
		params: []ParamSpec{
			{Name: "pebbles", Type: "int", Required: true, Min: limit(1), Doc: "pebble population size (invariant over time)"},
			{Name: "lazy", Type: "bool", Default: true, Doc: "paper's lazy variant: each round is skipped with probability 1/2"},
			{Name: "target", Type: "int", Min: limit(0), Doc: "when set, trials measure rounds until a pebble first visits this vertex (hitting time)"},
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial round cap; 0 selects a generous default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "vertex holding all pebbles initially"},
		},
		results: uniformResults("per-trial rounds for the pebble population to cover the graph, or to hit target when set"),
	}})
}

// waltProcess adapts walt.Process to the Process contract. Trial i
// constructs a fresh Walt process on random stream i, matching the
// historical walt.CoverTimes seed discipline.
type waltProcess struct{ base }

func (w waltProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	cfg := walt.Config{
		Lazy:     r.Params.Bool("lazy", true),
		MaxSteps: r.Params.Int("max_steps", 0),
	}
	target, hit, err := optionalTarget(r)
	if err != nil {
		return nil, err
	}
	pebbles := r.Params.Int("pebbles", 1)
	n := r.Graph.N()
	depths := depthMap(r, start)
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsContext(ctx, r.Trials, r.Seed,
		func(trial int, src *rng.Source) (float64, error) {
			p := walt.NewAtVertex(r.Graph, pebbles, start, cfg, src)
			var steps int
			var ok bool
			switch tr := r.observe(trial); {
			case tr != nil:
				steps, ok = runWaltTraced(p, tr, n, stopRule(p, n, target, hit), depths)
			case hit:
				steps, ok = p.HittingTime(target)
			default:
				steps, ok = p.CoverTime()
			}
			if !ok {
				return 0, fmt.Errorf("walt: step cap exceeded on %s", r.Graph)
			}
			return float64(steps), nil
		},
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	return &Result{Values: values, Summary: uniformSummary(values, r.Graph)}, nil
}

// runWaltTraced replicates walt.Process.CoverTime or HittingTime round
// for round — done is the same loop condition (see stopRule) — while
// reporting one frame per executed round. The frontier is the set of
// distinct occupied vertices (the pebble population's footprint), in
// first-seen order; each round unmarks only the previous frontier.
func runWaltTraced(p *walt.Process, tr obs.Trace, n int, done func() bool, depths []int32) (int, bool) {
	defer tr.End()
	seen := make([]bool, n)
	var frontier []int32
	for !done() {
		if p.Steps() >= p.MaxSteps() {
			return p.Steps(), false
		}
		p.Step()
		for _, v := range frontier {
			seen[v] = false
		}
		frontier = frontier[:0]
		for _, v := range p.Positions() {
			if !seen[v] {
				seen[v] = true
				frontier = append(frontier, v)
			}
		}
		minPos, maxPos := frontierSpan(depths, frontier)
		tr.Round(p.CoveredCount(), n, len(frontier), minPos, maxPos)
	}
	return p.Steps(), true
}

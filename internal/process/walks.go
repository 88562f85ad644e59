package process

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walk"
)

// walkCap resolves the shared round-cap default for the processes that
// (unlike core) take an explicit cap: the baseline walks and the
// gossip protocols.
func walkCap(r Run) int {
	if c := r.Params.Int("max_steps", 0); c > 0 {
		return c
	}
	n := r.Graph.N()
	return 200*n*n + 100000
}

func init() {
	Register(simpleWalkProcess{base{
		name: "simple-walk",
		doc:  "simple random walk: steps for a single uniform walker to visit every vertex",
		params: []ParamSpec{
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial step cap; 0 selects a generous default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex"},
		},
		results: uniformResults("per-trial steps to visit every vertex"),
	}})
	Register(lazyWalkProcess{base{
		name: "lazy-walk",
		doc:  "lazy random walk (stay put with probability 1/2): steps to visit every vertex",
		params: []ParamSpec{
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial step cap; 0 selects a generous default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex"},
		},
		results: uniformResults("per-trial steps to visit every vertex"),
	}})
	Register(parallelWalkProcess{base{
		name: "parallel-walk",
		doc:  "k independent simple random walks in lockstep: rounds for the union of trajectories to cover the graph",
		params: []ParamSpec{
			{Name: "k", Type: "int", Required: true, Min: limit(1), Doc: "number of independent walkers"},
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial round cap; 0 selects a generous default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex of every walker"},
		},
		results: uniformResults("per-trial rounds for the trajectory union to cover the graph"),
	}})
}

// simpleWalkProcess runs the simple random walk as the 1-cobra walk on
// core's seed-stable sparse loop (θ = -1), whose draws are one
// Int31n(deg) per step.
type simpleWalkProcess struct{ base }

func (simpleWalkProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{K: 1, DenseTheta: -1, MaxSteps: walkCap(r)}
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsPooledContext(ctx, r.Trials, r.Seed,
		core.Trials(r.Graph, cfg, []int32{start}, -1),
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	return &Result{Values: values, Summary: uniformSummary(values, r.Graph)}, nil
}

type lazyWalkProcess struct{ base }

func (lazyWalkProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	maxSteps := walkCap(r)
	n := r.Graph.N()
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsPooledContext(ctx, r.Trials, r.Seed,
		func() sim.TrialFunc {
			visited := bitset.New(n)
			return func(trial int, src *rng.Source) (float64, error) {
				l := walk.NewLazy(r.Graph, start, src)
				visited.Clear()
				visited.Add(int(start))
				count := 1
				steps := 0
				for count < n {
					if steps >= maxSteps {
						return 0, fmt.Errorf("lazy-walk: step cap exceeded on %s", r.Graph)
					}
					l.Step()
					steps++
					if !visited.TestAndAdd(int(l.Pos())) {
						count++
					}
				}
				return float64(steps), nil
			}
		},
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	return &Result{Values: values, Summary: uniformSummary(values, r.Graph)}, nil
}

type parallelWalkProcess struct{ base }

func (parallelWalkProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	k := r.Params.Int("k", 1)
	maxSteps := walkCap(r)
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsContext(ctx, r.Trials, r.Seed,
		func(trial int, src *rng.Source) (float64, error) {
			rounds, ok := walk.NewParallel(r.Graph, k, start, src).CoverTime(maxSteps)
			if !ok {
				return 0, fmt.Errorf("parallel-walk: round cap exceeded on %s", r.Graph)
			}
			return float64(rounds), nil
		},
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	return &Result{Values: values, Summary: uniformSummary(values, r.Graph)}, nil
}

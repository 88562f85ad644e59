package process

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	Register(cobraProcess{base{
		name: "cobra",
		doc:  "k-cobra walk: rounds for the coalescing-branching walk to cover the graph (or a coverage fraction, or to hit a target vertex)",
		params: []ParamSpec{
			{Name: "k", Type: "int", Required: true, Min: limit(1), Doc: "branching factor: neighbors sampled per active vertex per round"},
			{Name: "cover_fraction", Type: "float", Default: 1.0, Min: limit(0), Max: limit(1), Doc: "coverage target in (0,1]; 1 = full cover"},
			{Name: "target", Type: "int", Min: limit(0), Doc: "when set, trials measure rounds until this vertex is first active (hitting time); excludes cover_fraction"},
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial round cap; 0 selects the core default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex"},
		},
		results: uniformResults("per-trial rounds to reach the coverage target, or to hit target when set",
			ResultField{Name: "messages_mean", Kind: "summary", Doc: "mean neighbor samples drawn per trial"}),
	}})
	Register(generalProcess{base{
		name: "general",
		doc:  "generalized cobra walk: cover rounds under per-vertex, per-round, or random branching factors",
		params: []ParamSpec{
			{Name: "branching", Type: "string", Default: "constant", Enum: []string{"constant", "bernoulli", "degree-capped", "periodic"}, Doc: "branching rule"},
			{Name: "k", Type: "int", Required: true, Min: limit(1), Doc: "base branching factor"},
			{Name: "k2", Type: "int", Default: 0, Min: limit(0), Doc: "alternate factor for bernoulli branching; 0 selects k+1"},
			{Name: "p", Type: "float", Default: 0.5, Min: limit(0), Max: limit(1), Doc: "probability of branching k2 ways (bernoulli)"},
			{Name: "period", Type: "int", Default: 2, Min: limit(1), Doc: "rounds between k-way bursts (periodic)"},
			{Name: "max_steps", Type: "int", Default: 0, Min: limit(0), Doc: "per-trial round cap; 0 selects the core default"},
			{Name: "start", Type: "int", Default: 0, Min: limit(0), Doc: "start vertex"},
		},
		results: uniformResults("per-trial rounds to cover the graph"),
	}})
}

// cobraProcess adapts core.Walk to the Process contract: one pooled Walk
// per worker, SetRand + Reset per trial, so every trial's draw sequence
// is that of a freshly built walk on the trial's stream. cobractl's
// cover sweeps run through this process.
type cobraProcess struct{ base }

func (c cobraProcess) Validate(p Params) error {
	if err := CheckParams(c.params, p); err != nil {
		return err
	}
	f, hasFrac := p["cover_fraction"].(float64)
	if hasFrac && f == 0 {
		return fmt.Errorf("process: cobra: cover_fraction must be in (0, 1]")
	}
	if _, hasTarget := p["target"]; hasTarget && hasFrac {
		return fmt.Errorf("process: cobra: target and cover_fraction are exclusive")
	}
	return nil
}

func (c cobraProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	target, hit, err := optionalTarget(r)
	if err != nil {
		return nil, err
	}
	k := r.Params.Int("k", 1)
	frac := r.Params.Float("cover_fraction", 1)
	n := r.Graph.N()
	depths := depthMap(r, start)
	messages := make([]float64, r.Trials)
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsPooledContext(ctx, r.Trials, r.Seed,
		func() sim.TrialFunc {
			w := core.New(r.Graph, core.Config{
				K:        k,
				MaxSteps: r.Params.Int("max_steps", 0),
			}, rng.New(0))
			// RunUntilCoveredFraction's count; n when frac is 1.
			done := stopRule(w, max(int(frac*float64(n)), 1), target, hit)
			var frontier []int32 // traced-trial scratch
			return func(trial int, src *rng.Source) (float64, error) {
				w.SetRand(src)
				w.Reset(start)
				var steps int
				var ok bool
				switch tr := r.observe(trial); {
				case tr != nil:
					steps, ok, frontier = runCobraTraced(w, tr, n, done, depths, frontier)
				case hit:
					steps, ok = w.RunUntilHit(target)
				case frac == 1:
					steps, ok = w.RunUntilCovered()
				default:
					steps, ok = w.RunUntilCoveredFraction(frac)
				}
				if !ok {
					return 0, fmt.Errorf("cobra: step cap exceeded on %s", r.Graph)
				}
				messages[trial] = float64(w.MessagesSent())
				return float64(steps), nil
			}
		},
		func(completed int) { r.progress()(completed, r.Trials) })
	if err != nil {
		return nil, err
	}
	summary := uniformSummary(values, r.Graph)
	summary["messages_mean"] = stats.Mean(messages)
	return &Result{Values: values, Summary: summary}, nil
}

// runCobraTraced replicates Walk.RunUntilHit / RunUntilCovered /
// RunUntilCoveredFraction round for round — done is the same loop
// condition (see stopRule), so the draw sequence and return values are
// identical — while reporting one frame per executed round to tr. The
// scratch slice is returned for reuse across trials.
func runCobraTraced(w *core.Walk, tr obs.Trace, n int, done func() bool, depths, scratch []int32) (int, bool, []int32) {
	defer tr.End()
	for !done() {
		if w.Steps() >= w.MaxSteps() {
			return w.Steps(), false, scratch
		}
		w.Step()
		scratch = w.AppendActive(scratch[:0])
		minPos, maxPos := frontierSpan(depths, scratch)
		tr.Round(w.CoveredCount(), n, w.ActiveCount(), minPos, maxPos)
	}
	return w.Steps(), true, scratch
}

// generalProcess runs core.NewGeneral's walk under one of the branching
// rules of branching.go — the paper's §1 "branching varied by vertex,
// time step, or random distribution" variation. Like cobraProcess it
// pools one walk per worker and traces through runCobraTraced.
type generalProcess struct{ base }

func (g generalProcess) Run(ctx context.Context, r Run) (*Result, error) {
	start, err := startVertex(r)
	if err != nil {
		return nil, err
	}
	k := r.Params.Int("k", 1)
	k2 := r.Params.Int("k2", 0)
	if k2 == 0 {
		k2 = k + 1
	}
	branch := func() core.BranchingFunc {
		switch r.Params.String("branching", "constant") {
		case "bernoulli":
			return core.BernoulliBranching(k, k2, r.Params.Float("p", 0.5))
		case "degree-capped":
			return core.DegreeCappedBranching(r.Graph, k)
		case "periodic":
			return core.PeriodicBranching(k, r.Params.Int("period", 2))
		default:
			return core.ConstantBranching(k)
		}
	}()
	maxSteps := r.Params.Int("max_steps", 0)
	n := r.Graph.N()
	depths := depthMap(r, start)
	r.progress()(0, r.Trials)
	values, err := sim.RunTrialsPooledContext(ctx, r.Trials, r.Seed,
		func() sim.TrialFunc {
			w := core.NewGeneral(r.Graph, branch, maxSteps, rng.New(0))
			done := stopRule(w, n, 0, false)
			var frontier []int32 // traced-trial scratch
			return func(trial int, src *rng.Source) (float64, error) {
				w.SetRand(src)
				w.Reset(start)
				var steps int
				var ok bool
				if tr := r.observe(trial); tr != nil {
					steps, ok, frontier = runCobraTraced(w, tr, n, done, depths, frontier)
				} else {
					steps, ok = w.RunUntilCovered()
				}
				if !ok {
					return 0, fmt.Errorf("general: step cap exceeded on %s", r.Graph)
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

package engine

import (
	"context"

	"repro/internal/graph"
	"repro/internal/graphstore"
	"repro/internal/obs"
)

// ObservableSpec is the optional interface a Spec implements to stream
// per-round observable frames while it runs. The engine detects it at
// execution time and hands the spec a tracer recording into the job's
// Series; specs that don't implement it run exactly as before. The
// observer contract is draw-sequence neutrality: RunObserved must
// return byte-identical outputs to Run for the same spec.
type ObservableSpec interface {
	Spec
	// RunObserved is Run with a per-trial observation hook attached.
	RunObserved(ctx context.Context, progress func(done, total int), observer obs.Observer) (*Output, error)
}

// runSpec executes j's spec, attaching the job's series tracer when the
// spec is observable and the job observed, and counts the execution per
// process. This is the single point both the plain and the cluster
// execution paths go through to actually run user work.
func (e *Engine) runSpec(j *Job) (*Output, error) {
	if e.procRuns != nil {
		e.procRuns.With(specProcessName(j.spec)).Inc()
	}
	// Every spec resolves its graphs through the engine's artifact
	// store; the per-job wrapper counts the builds the store avoided.
	ctx := graphstore.WithResolver(j.ctx, &jobResolver{store: e.graphs, job: j})
	if os, ok := j.spec.(ObservableSpec); ok && !j.unobserved {
		return os.RunObserved(ctx, j.reportProgress, obs.NewTracer(j.series))
	}
	return j.spec.Run(ctx, j.reportProgress)
}

// jobResolver adapts the engine's graph store to the context Resolver
// contract, attributing warm (mem/disk tier) resolutions to the job so
// sweeps can surface build-avoided counts in their status.
type jobResolver struct {
	store *graphstore.Store
	job   *Job
}

func (r *jobResolver) Resolve(spec string, seed uint64) (*graph.Graph, error) {
	g, tier, err := r.store.ResolveTier(spec, seed)
	if err == nil && tier != graphstore.TierBuild {
		r.job.mu.Lock()
		r.job.graphBuildsAvoided++
		r.job.mu.Unlock()
	}
	return g, err
}

func (r *jobResolver) Release(g *graph.Graph) { r.store.Release(g) }

// specProcessName labels a spec for the per-process run counter: the
// registered process name when the spec has one, the job kind otherwise.
func specProcessName(spec Spec) string {
	if ps, ok := spec.(*ProcessSpec); ok {
		return ps.Process
	}
	return spec.Kind()
}

package engine

import (
	"context"
	"fmt"

	"repro/internal/graphstore"
	"repro/internal/obs"
	"repro/internal/process"
)

// ProcessSpec is the generic job spec: any process registered in
// internal/process, parameterized by its own schema, run for Trials
// independent trials on one graph. It is the only spec kind new
// processes ever need — registering a process makes it schedulable,
// sweepable, and cacheable with no engine changes.
type ProcessSpec struct {
	// Process is a registered process name (see GET /v1/processes).
	Process string `json:"process"`
	// Graph is a cli graph spec, e.g. "grid:2,16" or "regular:1024,5".
	Graph string `json:"graph"`
	// GraphSeed seeds randomized graph families.
	GraphSeed uint64 `json:"graph_seed,omitempty"`
	// Params parameterizes the process per its schema.
	Params process.Params `json:"params,omitempty"`
	// Trials is the number of independent trials.
	Trials int `json:"trials"`
	// Seed is the root random seed; trial i uses stream i.
	Seed uint64 `json:"seed"`
}

// Kind implements Spec.
func (s *ProcessSpec) Kind() string { return "process" }

// Validate implements Spec.
func (s *ProcessSpec) Validate() error {
	proc, ok := process.Get(s.Process)
	if !ok {
		return fmt.Errorf("engine: process: unknown process %q (known: %v)", s.Process, process.Names())
	}
	if s.Graph == "" {
		return fmt.Errorf("engine: process: graph spec required")
	}
	if s.Trials < 1 {
		return fmt.Errorf("engine: process: trials must be >= 1")
	}
	if err := proc.Validate(s.Params); err != nil {
		return fmt.Errorf("engine: process %s: %w", s.Process, err)
	}
	return nil
}

// Run implements Spec: build the graph, resolve the process, run the
// trial batch.
func (s *ProcessSpec) Run(ctx context.Context, progress func(done, total int)) (*Output, error) {
	return s.RunObserved(ctx, progress, nil)
}

// RunObserved implements ObservableSpec: Run with the per-trial
// observation hook threaded through to the process. Observation is
// draw-sequence-neutral, so the output is identical either way.
func (s *ProcessSpec) RunObserved(ctx context.Context, progress func(done, total int), observer obs.Observer) (*Output, error) {
	proc, ok := process.Get(s.Process)
	if !ok {
		return nil, fmt.Errorf("engine: process: unknown process %q", s.Process)
	}
	// Resolve the topology through the graph artifact store when an
	// engine is in the path (direct build otherwise). The decoded CSR is
	// identical to a fresh graph.Build, so result streams are
	// byte-identical regardless of the serving tier.
	gr := graphstore.FromContext(ctx)
	g, err := gr.Resolve(s.Graph, s.GraphSeed)
	if err != nil {
		return nil, err
	}
	defer gr.Release(g)
	res, err := proc.Run(ctx, process.Run{
		Graph:    g,
		Params:   s.Params,
		Trials:   s.Trials,
		Seed:     s.Seed,
		Progress: progress,
		Observer: observer,
	})
	if err != nil {
		return nil, err
	}
	meta := map[string]string{"process": s.Process, "graph": s.Graph}
	for k, v := range res.Meta {
		meta[k] = v
	}
	return &Output{Values: res.Values, Summary: res.Summary, Meta: meta}, nil
}

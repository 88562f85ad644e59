package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/process"
	"repro/internal/rng"
	"repro/internal/sim"
)

// SweepSpec is a server-side parameter sweep: one submitted spec fans
// out into child point jobs over a grid of registered processes, graph
// families, branching factors, and sizes (for "process" children) or
// over a list of experiment IDs (for "experiment" children). The engine
// runs the children on its worker pool, aggregates their progress and
// results, and caches the aggregate under the sweep's own fingerprint —
// so identical sweeps, and any point shared with a past sweep or point
// job, are served without re-running trials.
//
// Seed discipline matches the historical client-side loops exactly:
// size index si uses graph-seed stream 9000+si, and the flat point
// index p (processes × families × ks × sizes, sizes fastest) uses
// trial-seed stream p. A single-family, single-k cobra sweep therefore
// reproduces, byte for byte, what cmd/covertime computed before sweeps
// moved server-side.
type SweepSpec struct {
	// Child is the child job kind: "process" or "experiment".
	Child string `json:"child"`
	// Process is a registered process name for "process" children;
	// Processes, when set, sweeps several.
	Process   string   `json:"process,omitempty"`
	Processes []string `json:"processes,omitempty"`
	// Params carries base process parameters shared by every point of a
	// "process" sweep. A sweep may span processes with different
	// schemas: each point keeps only the base parameters its process
	// declares ("k=2 where applicable"), and the ks axis overrides the
	// "k" parameter per point.
	Params process.Params `json:"params,omitempty"`
	// Family is a family sweep spec (see cli.FamilySpec), e.g. "grid:2"
	// or "regular:5". Families, when set, sweeps several.
	Family   string   `json:"family,omitempty"`
	Families []string `json:"families,omitempty"`
	// Sizes is the family size axis.
	Sizes []int `json:"sizes,omitempty"`
	// K is the cobra branching factor; Ks, when set, sweeps several.
	K  int   `json:"k,omitempty"`
	Ks []int `json:"ks,omitempty"`
	// Trials is the number of independent trials per point.
	Trials int `json:"trials,omitempty"`
	// IDs is the experiment axis for "experiment" children.
	IDs []string `json:"ids,omitempty"`
	// Scale is the experiment scale ("quick" or "full").
	Scale string `json:"scale,omitempty"`
	// Seed is the root random seed for the whole sweep.
	Seed uint64 `json:"seed"`
}

// SweepPointResult is one grid point's result inside a sweep Output. It
// carries only deterministic data (no job IDs, no cache flags), so a
// sweep Output is a pure function of its SweepSpec and safe to cache.
type SweepPointResult struct {
	Index      int                `json:"index"`
	Process    string             `json:"process,omitempty"`
	Family     string             `json:"family,omitempty"`
	Graph      string             `json:"graph,omitempty"`
	Size       int                `json:"size,omitempty"`
	K          int                `json:"k,omitempty"`
	Experiment string             `json:"experiment,omitempty"`
	Summary    map[string]float64 `json:"summary,omitempty"`
	Values     []float64          `json:"values,omitempty"`
	Tables     []*sim.Table       `json:"tables,omitempty"`
	Findings   []string           `json:"findings,omitempty"`
	Meta       map[string]string  `json:"meta,omitempty"`
}

// Kind implements Spec.
func (s *SweepSpec) Kind() string { return "sweep" }

// Validate implements Spec: the grid must be non-empty and every child
// spec it generates must itself validate.
func (s *SweepSpec) Validate() error {
	pts, err := s.points()
	if err != nil {
		return err
	}
	for i, pt := range pts {
		if err := pt.spec.Validate(); err != nil {
			return fmt.Errorf("engine: sweep point %d: %w", i, err)
		}
	}
	return nil
}

// Run implements Spec but is never called: the engine intercepts
// *SweepSpec in Submit and coordinates the fan-out off the worker pool,
// so a sweep cannot deadlock a single-worker engine by occupying the
// slot its own children need.
func (s *SweepSpec) Run(ctx context.Context, progress func(done, total int)) (*Output, error) {
	return nil, fmt.Errorf("engine: sweep specs are scheduled by the engine, not run directly")
}

// sweepPoint pairs one child spec with its grid coordinates.
type sweepPoint struct {
	spec    Spec
	process string // process name, for "process" children
	family  string
	graph   string
	size    int
	k       int
	id      string // experiment ID
}

func (p sweepPoint) describe() string {
	if p.id != "" {
		return p.id
	}
	return fmt.Sprintf("%s %s k=%d", p.process, p.graph, p.k)
}

// points expands the grid into child specs, in flat point order.
func (s *SweepSpec) points() ([]sweepPoint, error) {
	if s.Child != "process" && (s.Process != "" || len(s.Processes) > 0 || len(s.Params) > 0) {
		return nil, fmt.Errorf("engine: sweep: process/processes/params are process-sweep fields")
	}
	switch s.Child {
	case "process":
		return s.processPoints()
	case "experiment":
		return s.experimentPoints()
	default:
		return nil, fmt.Errorf("engine: sweep: unknown child kind %q", s.Child)
	}
}

// processPoints expands a "process" sweep: processes × families × ks ×
// sizes, sizes fastest. The ks axis is optional — processes that take
// their branching factor from Params (or none at all) sweep with an
// empty ks — and when present it must be applicable: every swept
// process must declare a "k" parameter.
func (s *SweepSpec) processPoints() ([]sweepPoint, error) {
	procs := s.Processes
	if len(procs) == 0 {
		if s.Process == "" {
			return nil, fmt.Errorf("engine: sweep: process or processes required")
		}
		procs = []string{s.Process}
	} else if s.Process != "" {
		return nil, fmt.Errorf("engine: sweep: process and processes are mutually exclusive")
	}
	families := s.Families
	if len(families) == 0 {
		if s.Family == "" {
			return nil, fmt.Errorf("engine: sweep: family or families required")
		}
		families = []string{s.Family}
	} else if s.Family != "" {
		return nil, fmt.Errorf("engine: sweep: family and families are mutually exclusive")
	}
	ks := s.Ks
	if len(ks) == 0 && s.K != 0 {
		ks = []int{s.K}
	} else if len(ks) > 0 && s.K != 0 {
		return nil, fmt.Errorf("engine: sweep: k and ks are mutually exclusive")
	}
	if len(s.Sizes) == 0 {
		return nil, fmt.Errorf("engine: sweep: sizes required")
	}
	if len(s.IDs) > 0 || s.Scale != "" {
		return nil, fmt.Errorf("engine: sweep: ids/scale are experiment-sweep fields")
	}
	byName := make(map[string]process.Process, len(procs))
	for _, name := range procs {
		proc, ok := process.Get(name)
		if !ok {
			return nil, fmt.Errorf("engine: sweep: unknown process %q (known: %v)", name, process.Names())
		}
		if len(ks) > 0 && !process.HasParam(proc, "k") {
			return nil, fmt.Errorf("engine: sweep: process %q has no k parameter; drop the ks axis or set params per process", name)
		}
		byName[name] = proc
	}

	var pts []sweepPoint
	for pi, name := range procs {
		// A sweep may span processes with different schemas: keep only
		// the base parameters this process declares.
		baseParams := process.Params{}
		for pname, v := range s.Params {
			if process.HasParam(byName[name], pname) {
				baseParams[pname] = v
			}
		}
		if len(baseParams) == 0 {
			baseParams = nil
		}
		for fi, family := range families {
			kAxis := ks
			if len(kAxis) == 0 {
				kAxis = []int{0} // no k axis: a single slice per family
			}
			for ki, k := range kAxis {
				for si, size := range s.Sizes {
					graphSpec, err := cli.FamilySpec(family, size)
					if err != nil {
						return nil, fmt.Errorf("engine: sweep: %w", err)
					}
					p := ((pi*len(families)+fi)*len(kAxis)+ki)*len(s.Sizes) + si
					params := baseParams.Clone()
					if k != 0 {
						if params == nil {
							params = process.Params{}
						}
						params["k"] = float64(k)
					}
					pts = append(pts, sweepPoint{
						spec: &ProcessSpec{
							Process:   name,
							Graph:     graphSpec,
							GraphSeed: rng.Stream(s.Seed, 9000+si),
							Params:    params,
							Trials:    s.Trials,
							Seed:      rng.Stream(s.Seed, p),
						},
						process: name,
						family:  family,
						graph:   graphSpec,
						size:    size,
						k:       k,
					})
				}
			}
		}
	}
	return pts, nil
}

func (s *SweepSpec) experimentPoints() ([]sweepPoint, error) {
	if len(s.IDs) == 0 {
		return nil, fmt.Errorf("engine: sweep: ids required for experiment sweeps")
	}
	if s.Family != "" || len(s.Families) > 0 || len(s.Sizes) > 0 ||
		s.K != 0 || len(s.Ks) > 0 || s.Trials != 0 {
		return nil, fmt.Errorf("engine: sweep: grid fields are process-sweep fields")
	}
	pts := make([]sweepPoint, len(s.IDs))
	for i, id := range s.IDs {
		pts[i] = sweepPoint{
			spec: &ExperimentSpec{ID: id, Scale: s.Scale, Seed: s.Seed},
			id:   id,
		}
	}
	return pts, nil
}

// sweepProgressUnit is the per-child progress resolution of a sweep
// job: a child counts for one unit when terminal and a proportional
// share while running, so the parent's progress advances smoothly even
// when children have very different trial counts.
const sweepProgressUnit = 1000

// submitSweep registers a sweep job and starts its coordinator
// goroutine, which stages the children onto the worker pool. The
// coordinator runs off the pool — a sweep never occupies a worker slot,
// so fan-out cannot self-deadlock even with Workers=1 — and it
// throttles against the bounded queue: a sweep larger than the free
// queue depth submits its remaining points as slots free up instead of
// failing with ErrQueueFull.
func (e *Engine) submitSweep(spec *SweepSpec, priority int, trace string) (*Job, error) {
	pts, err := spec.points()
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		if err := pt.spec.Validate(); err != nil {
			return nil, fmt.Errorf("engine: sweep point %d: %w", i, err)
		}
	}
	fp := Fingerprint(spec)

	e.mu.Lock()
	if e.closed {
		e.rejected.Add(1)
		e.mu.Unlock()
		return nil, ErrShutdown
	}
	out, hit := e.cachedOutputLocked(fp)
	if e.closed { // the lock may have cycled during a store read
		e.rejected.Add(1)
		e.mu.Unlock()
		return nil, ErrShutdown
	}
	if hit {
		j := e.newJobLocked(spec, priority, fp, trace)
		j.cacheHit = true
		j.state = Done
		j.output = out
		j.progressDone = sweepProgressUnit * len(pts)
		j.progressTotal = sweepProgressUnit * len(pts)
		now := time.Now()
		j.started, j.finished = now, now
		close(j.done)
		j.cancel()
		e.submitted.Add(1)
		e.cacheHits.Add(1)
		e.completed.Add(1)
		e.mu.Unlock()
		if c := e.opts.Cluster; c != nil {
			// The aggregate is already stored; retire any announcement a
			// crashed origin left behind so runners stop adopting it.
			c.CompleteSweep(fp)
		}
		return j, nil
	}
	parent := e.newJobLocked(spec, priority, fp, trace)
	// The parent is never queued: its coordinator starts immediately, so
	// it is Running from birth. This matters for Cancel, which finishes
	// Queued jobs directly — a sweep must instead be torn down by its
	// coordinator so cancellation reaches the children first.
	parent.mu.Lock()
	parent.state = Running
	parent.started = time.Now()
	parent.mu.Unlock()
	e.submitted.Add(1)
	e.mu.Unlock()

	if c := e.opts.Cluster; c != nil {
		// Publish the sweep so runner nodes adopt it and help
		// drain the grid. Announcing is create-if-absent keyed by the
		// sweep fingerprint, so an adopted copy re-announcing — or a
		// resubmission racing a runner — is a no-op.
		if data, err := json.Marshal(spec); err == nil {
			_ = c.AnnounceSweep(fp, spec.Kind(), data, priority)
		}
	}

	e.sweepWG.Add(1)
	go func() {
		defer e.sweepWG.Done()
		e.runSweep(parent, spec, pts)
	}()
	return parent, nil
}

// sweepChildEvent reports one child reaching a terminal state.
type sweepChildEvent struct {
	index int
	job   *Job
}

// runSweep is the sweep coordinator: it stages child submissions
// against the bounded queue, tracks completion, aggregates progress for
// watchers, propagates cancellation downward, fails fast when a child
// fails or is individually canceled, and finishes the parent with the
// aggregate output once every submitted child is terminal.
func (e *Engine) runSweep(parent *Job, spec *SweepSpec, pts []sweepPoint) {
	total := len(pts)
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()

	childDone := make(chan sweepChildEvent, total)
	watch := func(i int, c *Job) {
		go func() {
			<-c.Done()
			childDone <- sweepChildEvent{index: i, job: c}
		}()
	}

	children := make([]*Job, 0, total)
	terminal := 0
	var firstErr error
	canceled := false
	cancelCh := parent.ctx.Done()

	// abort cancels every submitted child; the drain loop below still
	// waits for them all to reach a terminal state.
	abort := func() {
		for _, c := range children {
			e.Cancel(c.ID())
		}
	}
	// onChildDone folds one completion into the coordinator state,
	// failing fast — cancel all siblings, stop submitting — the first
	// time a child ends in failure or individual cancellation.
	onChildDone := func(ev sweepChildEvent) {
		terminal++
		// Fold the child's warm graph resolutions into the parent so the
		// sweep status surfaces how many topology builds the artifact
		// store saved across the whole grid.
		ev.job.mu.Lock()
		avoided := ev.job.graphBuildsAvoided
		ev.job.mu.Unlock()
		if avoided > 0 {
			parent.mu.Lock()
			parent.graphBuildsAvoided += avoided
			parent.mu.Unlock()
		}
		if firstErr != nil || canceled {
			return
		}
		if _, err := ev.job.Output(); err != nil {
			firstErr = fmt.Errorf("engine: sweep point %d (%s): %w", ev.index, pts[ev.index].describe(), err)
			abort()
		}
	}
	onCancel := func() {
		canceled = true
		cancelCh = nil
		abort()
	}
	progress := func() {
		e.aggregateSweepProgress(parent, children, total)
	}

submitLoop:
	for i, pt := range pts {
		for {
			if canceled || firstErr != nil {
				break submitLoop
			}
			child, err := e.submit(pt.spec, parent.priority, parent, "")
			if err == nil {
				parent.mu.Lock()
				parent.children = append(parent.children, child)
				if child.cacheHit {
					// The point was already in the cache or the store —
					// a resumed sweep schedules only what is missing,
					// and the count makes the resume visible to
					// watchers ("resumed" in the parent status).
					parent.resumed++
				}
				parent.notifyLocked()
				parent.mu.Unlock()
				children = append(children, child)
				watch(i, child)
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				// Engine shutdown (or an unexpected rejection): no more
				// children can be placed — tear the sweep down.
				firstErr = fmt.Errorf("engine: sweep point %d (%s): %w", i, pt.describe(), err)
				abort()
				break submitLoop
			}
			// Queue full: wait for capacity to free up while keeping
			// progress aggregation and cancellation live.
			select {
			case <-cancelCh:
				onCancel()
			case ev := <-childDone:
				onChildDone(ev)
				progress()
			case <-ticker.C:
				progress()
			}
		}
	}

	for terminal < len(children) {
		select {
		case <-cancelCh:
			onCancel()
		case ev := <-childDone:
			onChildDone(ev)
			progress()
		case <-ticker.C:
			progress()
		}
	}

	// Capture the cancellation verdict before finishJob: finishJob
	// releases the parent's context as cleanup, so reading
	// parent.ctx.Err() after it would claim every completed sweep was
	// canceled — and publish a cancellation that kills peers' still-
	// running copies.
	wasCanceled := canceled || parent.ctx.Err() != nil
	switch {
	case wasCanceled:
		e.finishJob(parent, nil, context.Canceled)
	case firstErr != nil:
		e.finishJob(parent, nil, firstErr)
	default:
		out, err := aggregateSweep(spec, pts, children)
		e.finishJob(parent, out, err)
	}
	if c := e.opts.Cluster; c != nil {
		if wasCanceled {
			// Cross-node propagation: peers draining an adopted copy of
			// this sweep must cancel theirs too, not finish it alone.
			// The marker's timestamp spares later resubmissions.
			_ = c.CancelSweep(parent.fingerprint)
		}
		// Terminal either way: retire the announcement so runners stop
		// adopting it. Peers already mid-drain finish their copies (and
		// the store keeps every point they complete).
		c.CompleteSweep(parent.fingerprint)
	}
}

// aggregateSweepProgress folds the children's progress into the parent:
// each of the sweep's total points contributes sweepProgressUnit units —
// prorated by the child's own done/total while running, zero while the
// point is still waiting to be submitted. Running children with an
// observable frame stream additionally interpolate the in-flight
// trial's rounds, so few-trial points advance smoothly instead of in
// whole-trial jumps.
func (e *Engine) aggregateSweepProgress(parent *Job, children []*Job, total int) {
	doneUnits := 0
	for _, c := range children {
		c.mu.Lock()
		terminal, d, tot := c.state.Terminal(), c.progressDone, c.progressTotal
		c.mu.Unlock()
		switch {
		case terminal:
			doneUnits += sweepProgressUnit
		case tot > 0:
			inFlight, meanRounds := c.series.TrialProgress()
			doneUnits += interpolateChildUnits(d, tot, inFlight, meanRounds)
		}
	}
	parent.reportProgress(doneUnits, sweepProgressUnit*total)
}

// interpolateChildUnits converts one running child's progress into
// parent units: the whole-trial share done/tot, plus a fractional share
// for the trial in flight, estimated as its observed rounds over the
// mean rounds of the child's completed traced trials. The in-flight
// share is capped just below one full trial so interpolation never
// claims work that has not finished, and the total never exceeds the
// child's full unit.
func interpolateChildUnits(done, tot, inFlightRounds int, meanRounds float64) int {
	if tot <= 0 {
		return 0
	}
	units := sweepProgressUnit * done / tot
	if inFlightRounds > 0 && meanRounds > 0 && done < tot {
		frac := float64(inFlightRounds) / meanRounds
		if frac > 0.95 {
			frac = 0.95
		}
		units += int(float64(sweepProgressUnit) * frac / float64(tot))
	}
	if units > sweepProgressUnit {
		units = sweepProgressUnit
	}
	return units
}

// aggregateSweep assembles the sweep Output from terminal children: the
// per-point results plus, for process sweeps, one summary table per
// (process, family, k) slice. Any child failure fails the whole sweep
// with the first failing point's error.
func aggregateSweep(spec *SweepSpec, pts []sweepPoint, children []*Job) (*Output, error) {
	points := make([]SweepPointResult, len(children))
	for i, c := range children {
		out, err := c.Output()
		if err != nil {
			return nil, fmt.Errorf("engine: sweep point %d (%s): %w", i, pts[i].describe(), err)
		}
		points[i] = SweepPointResult{
			Index:      i,
			Process:    pts[i].process,
			Family:     pts[i].family,
			Graph:      pts[i].graph,
			Size:       pts[i].size,
			K:          pts[i].k,
			Experiment: pts[i].id,
			Summary:    out.Summary,
			Values:     out.Values,
			Tables:     out.Tables,
			Findings:   out.Findings,
			Meta:       out.Meta,
		}
	}

	agg := &Output{
		Points: points,
		Meta: map[string]string{
			"sweep":  spec.Child,
			"points": fmt.Sprintf("%d", len(points)),
		},
	}
	switch spec.Child {
	case "process":
		agg.Tables = processSweepTables(points)
	case "experiment":
		for _, p := range points {
			agg.Tables = append(agg.Tables, p.Tables...)
			agg.Findings = append(agg.Findings, p.Findings...)
		}
	}
	return agg, nil
}

// processSweepTables renders one table per (process, family, k) slice
// of a process sweep, rows ordered by size — the server-side counterpart
// of the table cmd/covertime used to assemble client-side.
func processSweepTables(points []SweepPointResult) []*sim.Table {
	type slice struct {
		process string
		family  string
		k       int
	}
	var orderIdx []slice
	rows := map[slice][]SweepPointResult{}
	for _, p := range points {
		s := slice{p.Process, p.Family, p.K}
		if _, seen := rows[s]; !seen {
			orderIdx = append(orderIdx, s)
		}
		rows[s] = append(rows[s], p)
	}
	var tables []*sim.Table
	for _, s := range orderIdx {
		title := fmt.Sprintf("%s sweep: %s", s.process, s.family)
		if s.k != 0 {
			title = fmt.Sprintf("%s sweep (k=%d): %s", s.process, s.k, s.family)
		}
		tb := sim.NewTable(title, "size", "n", "m", "mean", "95% CI", "max")
		for _, p := range rows[s] {
			mean, ci, max := sim.SummaryCells(p.Values)
			tb.AddRowf(p.Size, int(p.Summary["n"]), int(p.Summary["m"]), mean, ci, max)
		}
		tables = append(tables, tb)
	}
	return tables
}

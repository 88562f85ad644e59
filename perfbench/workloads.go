package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/process"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client sends its next request only after the previous one returned.
type workload struct {
	name  string
	shape string
	// clients is the number of client goroutines. They share one
	// connection pool, http.DefaultTransport's: client.New ignores its
	// options, so no client can be given a transport of its own.
	clients int
	// freshPerSecond fixes how many computed operations a run performs —
	// seconds × rate — so every run of a seed does the same work and a
	// faster program finishes sooner instead of doing more. The sweep
	// workloads on grid and cluster use about their full rate on the
	// reference host (2 vCPUs). Point-jobs and expander-sweep use under
	// half of theirs: finished jobs and built graphs stay in memory, so
	// their peak memory grows with the operation count.
	freshPerSecond float64
	cluster        bool
	// sweep builds the workload's sweep for a root seed; nil for
	// point-jobs.
	sweep func(seed uint64) *engine.SweepSpec
}

// workers is the engine pool size of each serving node: nproc on a
// single node, one per runner on the cluster.
func (w *workload) workers() int {
	if w.cluster {
		return 1
	}
	return runtime.NumCPU()
}

// repeatsPerSweep is how many cache-served repeats of the warm-up
// sweep follow each fresh sweep. Repeats cost about a millisecond
// each, so they barely dent the compute share, but they give the
// hit-latency percentiles hundreds of samples per run. Like point-jobs'
// repeat set, the warm-up is computed during set-up, so it is always in
// the cache.
const repeatsPerSweep = 4

var workloads = map[string]*workload{
	"grid-sweep": {
		name:           "grid-sweep",
		shape:          "cobra k=2 over grid:2 sizes 64,128,192, 16 trials; 4 cache-served repeats per fresh sweep",
		clients:        1,
		freshPerSecond: 1.8,
		sweep: func(seed uint64) *engine.SweepSpec {
			return &engine.SweepSpec{Child: "process", Process: "cobra", Family: "grid:2",
				Sizes: []int{64, 128, 192}, K: 2, Trials: 16, Seed: seed}
		},
	},
	"expander-sweep": {
		name:           "expander-sweep",
		shape:          "cobra k=2 over regular:5 sizes 16384,32768,65536, 16 trials; 4 cache-served repeats per fresh sweep",
		clients:        1,
		freshPerSecond: 2.25,
		sweep: func(seed uint64) *engine.SweepSpec {
			return &engine.SweepSpec{Child: "process", Process: "cobra", Family: "regular:5",
				Sizes: []int{16384, 32768, 65536}, K: 2, Trials: 16, Seed: seed}
		},
	},
	"point-jobs": {
		name:           "point-jobs",
		shape:          "2 clients; cobra k=2, 8 trials over grid:2,16 regular:1024,5 cycle:64 lollipop:32,32; 1 request in 4 repeats a set-up result",
		clients:        2,
		freshPerSecond: 375,
	},
	"cluster-sweep": {
		name:           "cluster-sweep",
		shape:          "12-point cobra k=2 cycle sweep, 100 trials, submitted to runner A of a coordinator + 2 HTTP runners; 4 cache-served repeats per fresh sweep",
		clients:        1,
		freshPerSecond: 8.5,
		cluster:        true,
		sweep: func(seed uint64) *engine.SweepSpec {
			return &engine.SweepSpec{Child: "process", Process: "cobra", Family: "cycle",
				Sizes: []int{32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208},
				K:     2, Trials: 100, Seed: seed}
		},
	},
}

// pointGraphs is point-jobs' fixed graph set, built during set-up.
var pointGraphs = []string{"grid:2,16", "regular:1024,5", "cycle:64", "lollipop:32,32"}

const (
	pointTrials = 8
	// repeatsPerGraph sizes point-jobs' repeat set, computed during
	// set-up: 4 graphs × 32 = 128 results, small enough to stay inside
	// the 1024-entry result cache.
	repeatsPerGraph = 32
)

// op is one client request.
type op struct {
	id     int
	client int
	repeat bool
	// of is the repeat-set index a point-jobs repeat re-requests; a
	// sweep repeat re-requests the warm-up sweep.
	of    int
	sweep *engine.SweepSpec
	job   *engine.ProcessSpec
	// pass is a point-jobs client's pass over the graph set: its
	// client-side sweep.
	pass int
}

// plan is the whole input of a run, derived from the seed alone.
type plan struct {
	warmup  *engine.SweepSpec     // sweep workloads
	repeats []*engine.ProcessSpec // point-jobs' repeat set, per graph in order
	clients [][]*op
	checkOp int // the fresh operation recomputed on a plain engine
}

func (p *plan) size() int {
	n := 0
	for _, ops := range p.clients {
		n += len(ops)
	}
	return n
}

func (w *workload) plan(seed uint64, seconds int) *plan {
	r := rand.New(rand.NewPCG(seed, 0x70657266))
	p := &plan{}
	fresh := int(float64(seconds)*w.freshPerSecond + 0.5)
	if fresh < 1 {
		fresh = 1
	}
	id := 0
	if w.sweep != nil {
		p.warmup = w.sweep(r.Uint64())
		var ops []*op
		for i := 0; i < fresh; i++ {
			ops = append(ops, &op{id: id, sweep: w.sweep(r.Uint64())})
			id++
			for j := 0; j < repeatsPerSweep; j++ {
				ops = append(ops, &op{id: id, sweep: p.warmup, repeat: true})
				id++
			}
		}
		p.clients = [][]*op{ops}
		p.checkOp = r.IntN(fresh) * (1 + repeatsPerSweep)
		return p
	}

	graphSeeds := make([]uint64, len(pointGraphs))
	for g := range graphSeeds {
		graphSeeds[g] = r.Uint64()
	}
	spec := func(g int, seed uint64) *engine.ProcessSpec {
		return &engine.ProcessSpec{Process: "cobra", Graph: pointGraphs[g], GraphSeed: graphSeeds[g],
			Params: process.Params{"k": 2.0}, Trials: pointTrials, Seed: seed}
	}
	for g := range pointGraphs {
		for i := 0; i < repeatsPerGraph; i++ {
			p.repeats = append(p.repeats, spec(g, r.Uint64()))
		}
	}
	passes := (fresh*4/3 + 4*w.clients - 1) / (4 * w.clients)
	p.clients = make([][]*op, w.clients)
	for c := range p.clients {
		cr := rand.New(rand.NewPCG(seed, uint64(c)+1))
		for pass := 0; pass < passes; pass++ {
			for g := range pointGraphs {
				o := &op{id: id, client: c, pass: pass}
				if g == (pass+c)%len(pointGraphs) {
					// Round-robin over the graph's repeat set: each result is
					// re-requested every 512 requests or so, so fewer than 1024
					// other results are touched in between.
					k := pass / len(pointGraphs)
					o.repeat = true
					o.of = g*repeatsPerGraph + (k*w.clients+c)%repeatsPerGraph
					o.job = p.repeats[o.of]
				} else {
					o.job = spec(g, cr.Uint64())
				}
				p.clients[c] = append(p.clients[c], o)
				id++
			}
		}
	}
	for {
		c := r.IntN(len(p.clients))
		o := p.clients[c][r.IntN(len(p.clients[c]))]
		if !o.repeat {
			p.checkOp = o.id
			return p
		}
	}
}

// outcome is what one operation returned.
type outcome struct {
	op         *op
	start, end time.Time
	status     engine.Status
	out        *engine.Output
	err        error
	errKind    string // transport, http, queue_full, job_failed, job_canceled, check, peer
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }

// timedRun is the timed phase's raw outcome.
type timedRun struct {
	ops       []*outcome // by op id
	wall      time.Duration
	samples   int64
	rounds    int64
	pointJobs int
	fresh     int
	checks    []string
	// settled is the time the client waited, after its sweeps, for the
	// peers' adopted copies to finish; it is inside wall.
	settled atomic.Int64
	// before and after are every node's counters around the timed phase.
	before, after []nodeStats
}

func (t *timedRun) failed() int {
	n := 0
	for _, o := range t.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

func (t *timedRun) errorCounts() map[string]int {
	m := map[string]int{}
	for _, o := range t.ops {
		if o.err != nil {
			m[o.errKind]++
		}
	}
	return m
}

// fail marks an operation failed by an output check, keeping the first
// error it met.
func (o *outcome) fail(kind string, err error) {
	if o.err == nil {
		o.err, o.errKind = err, kind
	}
}

// runTimed drives every client's operations, closed loop, and records
// each outcome. The output checks that need only the operation itself
// run inline; they are cheap next to the request.
func runTimed(ctx context.Context, st *stack, p *plan) *timedRun {
	t := &timedRun{ops: make([]*outcome, p.size())}
	var wg sync.WaitGroup
	t.before = st.stats()
	start := time.Now()
	for c, ops := range p.clients {
		wg.Add(1)
		go func(cl *client.Client, ops []*op) {
			defer wg.Done()
			for _, o := range ops {
				oc := do(ctx, cl, o)
				t.ops[o.id] = oc
				if oc.err == nil && o.sweep != nil && !o.repeat {
					settleStart := time.Now()
					if err := st.settle(ctx, oc.status.Fingerprint); err != nil {
						oc.fail("peer", fmt.Errorf("%s: a peer's copy did not finish: %w", describe(o), err))
					}
					t.settled.Add(int64(time.Since(settleStart)))
				}
			}
		}(st.clients[c], ops)
	}
	wg.Wait()
	t.wall = time.Since(start)
	t.after = st.stats()
	for _, o := range t.ops {
		if !o.op.repeat {
			t.fresh++
		}
		switch {
		case o.out == nil:
		case o.op.repeat:
			t.pointJobs++ // one job, served from the cache
		case o.op.sweep != nil:
			t.pointJobs += len(o.out.Points)
			for _, pt := range o.out.Points {
				t.add(pt.Values, pt.Summary)
			}
		default:
			t.pointJobs++
			t.add(o.out.Values, o.out.Summary)
		}
	}
	checkInline(t, st)
	return t
}

// add counts one computed point's exact work: neighbour samples are
// messages_mean × trials, rounds the sum of per-trial rounds.
func (t *timedRun) add(values []float64, summary map[string]float64) {
	t.samples += int64(summary["messages_mean"]*float64(len(values)) + 0.5)
	for _, v := range values {
		t.rounds += int64(v)
	}
}

// do performs one operation: submit, follow the job's SSE stream to a
// terminal state, fetch the result.
func do(ctx context.Context, cl *client.Client, o *op) *outcome {
	oc := &outcome{op: o, start: time.Now()}
	ctx = withOp(ctx, o.id)
	if o.sweep != nil {
		oc.out, oc.status, oc.err = cl.RunSweep(ctx, *o.sweep, nil)
	} else {
		oc.out, oc.status, oc.err = cl.Run(ctx, "process", o.job, nil)
	}
	oc.end = time.Now()
	if oc.err != nil {
		oc.errKind = classify(oc.err, oc.status)
	}
	return oc
}

func classify(err error, st engine.Status) string {
	switch st.State {
	case engine.Failed:
		return "job_failed"
	case engine.Canceled:
		return "job_canceled"
	}
	var apiErr *client.Error
	if errors.As(err, &apiErr) {
		if apiErr.IsRetryable() {
			return "queue_full"
		}
		return "http"
	}
	return "transport"
}

type opKey struct{}

// withOp tags a request context with its operation, so the traced run
// can attribute the HTTP round trips it causes.
func withOp(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, opKey{}, id)
}

func opFromContext(ctx context.Context) int {
	if id, ok := ctx.Value(opKey{}).(int); ok {
		return id
	}
	return -1
}

func describe(o *op) string {
	if o.sweep != nil {
		return fmt.Sprintf("sweep %s seed %d", o.sweep.Family, o.sweep.Seed)
	}
	return fmt.Sprintf("job %s seed %d", o.job.Graph, o.job.Seed)
}

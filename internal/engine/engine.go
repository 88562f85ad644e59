package engine

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graphstore"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// Errors returned by Submit and job accessors.
var (
	// ErrQueueFull is returned by Submit when the pending queue is at
	// capacity.
	ErrQueueFull = errors.New("engine: queue full")
	// ErrShutdown is returned by Submit after Shutdown has begun.
	ErrShutdown = errors.New("engine: shut down")
	// ErrNotFinished is returned when a result is requested from a job
	// that has not reached a terminal state.
	ErrNotFinished = errors.New("engine: job not finished")
)

// State is a job lifecycle state.
type State string

// Job lifecycle states. Queued and Running are transient; Done, Failed,
// and Canceled are terminal.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// DefaultJobTTL is the retention window for terminal jobs in the job
// table when Options.JobTTL is zero.
const DefaultJobTTL = 15 * time.Minute

// ResultStore is the persistence surface behind the engine's result
// cache: a content-addressed record per fingerprint. *store.Store
// implements it over the local disk; cluster.RemoteStore implements
// it over a coordinator's /v1/cluster/results routes, so an engine
// can run with no data directory at all. Get misses report
// found=false with no error; Put must be idempotent per key (records
// are content-addressed, a re-put rewrites identical bytes); Len
// feeds the store-entries gauge and may be a local approximation.
type ResultStore interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, payload []byte) error
	Len() int
}

// Options configures an Engine. Zero fields select defaults.
type Options struct {
	// Workers is the worker pool size; defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of pending jobs; defaults to 1024.
	QueueDepth int
	// CacheSize bounds the result cache entry count; defaults to 1024.
	// Negative disables caching.
	CacheSize int
	// Store, when non-nil, backs the in-memory result cache with a
	// content-addressed store: successful outputs are written through
	// on completion and consulted on cache misses, so results survive
	// engine (and process) restarts. *store.Store gives the local
	// disk-backed store; a cluster.RemoteStore replicates through a
	// coordinator instead.
	Store ResultStore
	// JobTTL bounds how long terminal jobs stay in the job table before
	// the janitor evicts them; zero selects DefaultJobTTL, negative
	// disables eviction. Evicted job IDs become unknown to Job/Cancel;
	// their results remain reachable by resubmitting the same spec
	// (cache or Store).
	JobTTL time.Duration
	// NodeID, when set, stamps every job status with the identity of
	// the node that tracks it (the "node" field of the v1 Status).
	NodeID string
	// Graphs, when non-nil, is the graph artifact store every spec run
	// resolves its topology through (see internal/graphstore): one build
	// per graph fingerprint process-wide, artifacts shared on disk when
	// the store has a directory. Nil selects a private memory-only store,
	// so builds are still deduplicated within the engine.
	Graphs *graphstore.Store
	// Cluster, when non-nil, makes job execution lease-aware: workers
	// arbitrate each point through the cluster's arbiter (adopt a
	// stored result, else claim the point's lease, else wait for the
	// holder), so a fingerprint is computed once across every engine in
	// the cluster; sweeps are announced to the cluster so runner nodes
	// help drain them. Requires Store. Takes any cluster.Backend,
	// normally the node's *cluster.Member.
	Cluster cluster.Backend
	// Logger, when non-nil, receives structured job-lifecycle records
	// (start, finish, state, duration) with the job's trace identifier
	// attached. Nil discards them.
	Logger *slog.Logger
	// Registry, when non-nil, receives the engine's latency
	// instrumentation: a job-duration histogram, a per-round duration
	// histogram fed by observable frames, and a per-process run counter.
	Registry *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 1024
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.JobTTL == 0 {
		o.JobTTL = DefaultJobTTL
	}
	return o
}

// Metrics is a snapshot of the engine's monotonic counters and gauges.
type Metrics struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	CacheHits   int64 `json:"cache_hits"`
	StoreHits   int64 `json:"store_hits"`
	StoreErrors int64 `json:"store_errors"`
	Rejected    int64 `json:"rejected"`
	Evicted     int64 `json:"evicted"`
	// Computed counts jobs whose Spec.Run actually executed here, as
	// opposed to being served from the cache, the store, or a cluster
	// peer. Across a cluster, the Computed totals should sum to the
	// number of distinct points — the exactly-once accounting.
	Computed int64 `json:"computed"`
	// Adopted counts results taken from the store after another
	// cluster node computed them.
	Adopted int64 `json:"adopted"`
	// LeaseWaits counts jobs that had to wait on a foreign lease at
	// least once before resolving.
	LeaseWaits int64 `json:"lease_waits"`

	Queued       int `json:"queued"`
	Running      int `json:"running"`
	Workers      int `json:"workers"`
	QueueDepth   int `json:"queue_depth"`
	CacheLen     int `json:"cache_len"`
	CacheCap     int `json:"cache_cap"`
	Jobs         int `json:"jobs"`
	StoreEntries int `json:"store_entries"`
	// SeriesBytes is the bytes of packed frames that finished jobs
	// still in the job table hold; running jobs' rings are not counted.
	SeriesBytes int `json:"series_bytes"`
}

// Engine schedules Spec jobs onto a bounded worker pool.
type Engine struct {
	opts  Options
	cache *resultCache

	mu      sync.Mutex
	cond    *sync.Cond
	pending jobHeap
	jobs    map[string]*Job
	order   []*Job
	seq     int64
	closed  bool
	running int
	wg      sync.WaitGroup
	sweepWG sync.WaitGroup

	gcStop chan struct{}
	gcDone chan struct{}

	submitted, completed, failed, canceled, cacheHits, rejected atomic.Int64
	storeHits, storeErrors, evicted                             atomic.Int64
	computed, adopted, leaseWaits                               atomic.Int64
	seriesBytes                                                 atomic.Int64

	graphs *graphstore.Store

	log        *slog.Logger
	jobLatency *metrics.Histogram  // seconds per completed job
	roundDur   *metrics.Histogram  // seconds per observed simulation round
	procRuns   *metrics.CounterVec // executions by process name / job kind
}

// New creates an engine and starts its worker pool and, when a job TTL
// is in force, the janitor that evicts expired terminal jobs.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		opts:   opts,
		cache:  newResultCache(opts.CacheSize),
		jobs:   make(map[string]*Job),
		gcStop: make(chan struct{}),
		gcDone: make(chan struct{}),
		log:    opts.Logger,
	}
	if e.log == nil {
		e.log = slog.New(slog.DiscardHandler)
	}
	e.graphs = opts.Graphs
	if e.graphs == nil {
		// Memory-only store: Open without a directory cannot fail.
		e.graphs, _ = graphstore.Open(graphstore.Options{})
	}
	if r := opts.Registry; r != nil {
		e.jobLatency = r.NewHistogram("cobrad_job_duration_seconds",
			"Wall-clock duration of completed jobs.", metrics.DurationBuckets)
		e.roundDur = r.NewHistogram("cobrad_round_duration_seconds",
			"Wall-clock duration of observed simulation rounds.", metrics.DurationBuckets)
		e.procRuns = r.NewCounterVec("cobrad_process_runs_total",
			"Spec executions by process name (or job kind).", "process")
	}
	e.cond = sync.NewCond(&e.mu)
	for w := 0; w < opts.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	if opts.JobTTL > 0 {
		go e.gcLoop()
	} else {
		close(e.gcDone)
	}
	return e
}

// gcLoop periodically evicts expired terminal jobs from the job table.
// The sweep interval tracks the TTL so short TTLs (tests) evict promptly
// while long TTLs don't wake the process needlessly.
func (e *Engine) gcLoop() {
	defer close(e.gcDone)
	interval := e.opts.JobTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.gcStop:
			return
		case <-ticker.C:
			e.evictExpired(time.Now())
		}
	}
}

// evictExpired removes terminal jobs older than the TTL from the job
// table, returning how many were evicted. A sweep child outlives its TTL
// while its parent sweep is still live, so the parent's aggregate view
// never dangles. Without this eviction the table — and the order slice
// behind the list endpoint — would grow without bound in a long-running
// daemon.
func (e *Engine) evictExpired(now time.Time) int {
	if e.opts.JobTTL <= 0 {
		return 0
	}
	expired := func(j *Job) bool {
		j.mu.Lock()
		terminal, finished := j.state.Terminal(), j.finished
		parent := j.parent
		j.mu.Unlock()
		if !terminal || now.Sub(finished) < e.opts.JobTTL {
			return false
		}
		if parent != nil {
			parent.mu.Lock()
			parentTerminal := parent.state.Terminal()
			parent.mu.Unlock()
			if !parentTerminal {
				return false
			}
		}
		return true
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	kept := make([]*Job, 0, len(e.order))
	evicted := 0
	for _, j := range e.order {
		if expired(j) {
			delete(e.jobs, j.id)
			evicted++
			j.mu.Lock()
			e.seriesBytes.Add(-int64(j.seriesBytes))
			j.mu.Unlock()
		} else {
			kept = append(kept, j)
		}
	}
	if evicted > 0 {
		e.order = kept
		e.evicted.Add(int64(evicted))
	}
	return evicted
}

// cachedOutputLocked finds a cached output for fp, falling back to the
// persistent store on a memory miss. e.mu must be held on entry and is
// held again on return — but it is RELEASED around the store's disk
// read, so callers must re-validate any mutex-guarded preconditions
// (notably e.closed) after calling. Store hits are promoted into the
// memory cache.
func (e *Engine) cachedOutputLocked(fp string) (*Output, bool) {
	if out, ok := e.cache.get(fp); ok {
		return out, true
	}
	if e.opts.Store == nil {
		return nil, false
	}
	e.mu.Unlock()
	out, ok := e.loadFromStore(fp)
	e.mu.Lock()
	if !ok {
		// Another submitter may have completed the spec while the lock
		// was released.
		return e.cache.get(fp)
	}
	e.cache.put(fp, out)
	e.storeHits.Add(1)
	return out, true
}

// loadFromStore reads and decodes one output record; no locks held.
func (e *Engine) loadFromStore(fp string) (*Output, bool) {
	data, ok, err := e.opts.Store.Get(fp)
	if err != nil {
		e.storeErrors.Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	var out Output
	if err := json.Unmarshal(data, &out); err != nil {
		e.storeErrors.Add(1)
		return nil, false
	}
	return &out, true
}

// persist writes a successful output through to the persistent store.
func (e *Engine) persist(fp string, out *Output) {
	if e.opts.Store == nil || out == nil {
		return
	}
	data, err := json.Marshal(out)
	if err == nil {
		err = e.opts.Store.Put(fp, data)
	}
	if err != nil {
		e.storeErrors.Add(1)
	}
}

// Submit validates and enqueues a job for spec with the given priority
// (higher runs first; equal priorities run in submission order). If an
// identical spec has a cached result — in memory or in the persistent
// store — the returned job is already Done with CacheHit set. A
// *SweepSpec fans out server-side into child point jobs (see sweep.go).
// Submit never blocks on job execution.
func (e *Engine) Submit(spec Spec, priority int) (*Job, error) {
	return e.SubmitTraced(spec, priority, "")
}

// SubmitTraced is Submit with a caller-supplied trace identifier — the
// request/job correlation token that rides the job's context into the
// spec run, appears in the job status, and tags every log record. Empty
// trace means untraced (identical to Submit).
func (e *Engine) SubmitTraced(spec Spec, priority int, trace string) (*Job, error) {
	return e.submitRoot(spec, priority, trace, false)
}

// submitRoot routes a top-level submission to the sweep or point path;
// unobserved runs the job (and a sweep's children) without a tracer.
func (e *Engine) submitRoot(spec Spec, priority int, trace string, unobserved bool) (*Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("engine: nil spec")
	}
	if sw, ok := spec.(*SweepSpec); ok {
		return e.submitSweep(sw, priority, trace, unobserved)
	}
	return e.submit(spec, priority, nil, trace, unobserved)
}

// submit is the point-job submission path; parent links a sweep child to
// its coordinating sweep job (children inherit the parent's trace).
func (e *Engine) submit(spec Spec, priority int, parent *Job, trace string, unobserved bool) (*Job, error) {
	if trace == "" && parent != nil {
		trace = parent.trace
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fp := Fingerprint(spec)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.rejected.Add(1)
		return nil, ErrShutdown
	}
	out, hit := e.cachedOutputLocked(fp)
	if e.closed { // the lock may have cycled during a store read
		e.rejected.Add(1)
		return nil, ErrShutdown
	}
	if hit {
		j := e.newJobLocked(spec, priority, fp, trace)
		j.parent = parent
		j.cacheHit = true
		j.state = Done
		j.output = out
		j.progressDone, j.progressTotal = 1, 1
		now := time.Now()
		j.started, j.finished = now, now
		close(j.done)
		j.cancel()
		e.submitted.Add(1)
		e.cacheHits.Add(1)
		e.completed.Add(1)
		return j, nil
	}
	if e.pending.Len() >= e.opts.QueueDepth {
		// A full queue seen by a sweep coordinator is backpressure, not
		// shed load: it retries as slots free, so only client-facing
		// submissions count as rejections.
		if parent == nil {
			e.rejected.Add(1)
		}
		return nil, ErrQueueFull
	}
	j := e.newJobLocked(spec, priority, fp, trace)
	j.parent = parent
	j.unobserved = unobserved
	heap.Push(&e.pending, j)
	e.submitted.Add(1)
	e.cond.Signal()
	return j, nil
}

// newJobLocked allocates and registers a job; e.mu must be held. The
// trace identifier rides the job context (obs.TraceID recovers it
// inside Spec.Run) and the job gets its own observable frame series,
// wired into the engine's round-duration histogram when metrics are on.
func (e *Engine) newJobLocked(spec Spec, priority int, fp, trace string) *Job {
	e.seq++
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), trace))
	series := obs.NewSeries(0)
	if rd := e.roundDur; rd != nil {
		series.SetSink(func(f obs.Frame) {
			if f.DurNanos > 0 {
				rd.Observe(float64(f.DurNanos) / 1e9)
			}
		})
	}
	j := &Job{
		id:          fmt.Sprintf("j%06d", e.seq),
		seq:         e.seq,
		spec:        spec,
		priority:    priority,
		fingerprint: fp,
		node:        e.opts.NodeID,
		trace:       trace,
		series:      series,
		state:       Queued,
		submitted:   time.Now(),
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		heapIndex:   -1,
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	return j
}

// RunSync submits spec at default priority and blocks until the job
// finishes or ctx is done. It is the path the batch CLIs use, so the
// service and CLI workloads share one execution core. Its caller wants
// only the output, so the job runs unobserved: neither it nor a sweep's
// children record frames, and every trial takes the untraced loop.
func (e *Engine) RunSync(ctx context.Context, spec Spec) (*Output, error) {
	j, err := e.submitRoot(spec, 0, "", true)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// Job returns the job with the given id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns all known jobs in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.order...)
}

// Cancel cancels the job with the given id. A job still in the queue is
// removed from it and finishes immediately. Any other job is signalled
// through its context: a worker that has popped it finishes it without
// running its spec, and a running spec finishes when it observes the
// cancellation. So a job finishes only once nothing runs for it.
// Cancel reports whether the job exists and was not already terminal.
func (e *Engine) Cancel(id string) bool {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return false
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		e.mu.Unlock()
		return false
	}
	dequeued := j.heapIndex >= 0
	if dequeued {
		heap.Remove(&e.pending, j.heapIndex)
	}
	e.mu.Unlock()
	j.cancel()
	if dequeued {
		e.finishJob(j, nil, context.Canceled)
	}
	return true
}

// Shutdown stops accepting new jobs, drains the queue, and waits for the
// workers to exit. If ctx expires first, all in-flight and queued jobs
// are cancelled and Shutdown returns ctx.Err() after the pool stops.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	if !alreadyClosed {
		close(e.gcStop)
	}
	<-e.gcDone

	stopped := make(chan struct{})
	go func() {
		e.wg.Wait()
		// Workers are drained, so every child is terminal and each
		// sweep coordinator is at most an aggregation away from exit.
		e.sweepWG.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
		return nil
	case <-ctx.Done():
		for _, j := range e.Jobs() {
			j.cancel()
		}
		<-stopped
		return ctx.Err()
	}
}

// Graphs returns the engine's graph artifact store (never nil).
func (e *Engine) Graphs() *graphstore.Store { return e.graphs }

// Metrics returns a snapshot of the engine counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	queued := e.pending.Len()
	running := e.running
	cacheLen := e.cache.len()
	tracked := len(e.jobs)
	e.mu.Unlock()
	storeEntries := 0
	if e.opts.Store != nil {
		storeEntries = e.opts.Store.Len()
	}
	return Metrics{
		Submitted:    e.submitted.Load(),
		Completed:    e.completed.Load(),
		Failed:       e.failed.Load(),
		Canceled:     e.canceled.Load(),
		CacheHits:    e.cacheHits.Load(),
		StoreHits:    e.storeHits.Load(),
		StoreErrors:  e.storeErrors.Load(),
		Rejected:     e.rejected.Load(),
		Evicted:      e.evicted.Load(),
		Computed:     e.computed.Load(),
		Adopted:      e.adopted.Load(),
		LeaseWaits:   e.leaseWaits.Load(),
		Queued:       queued,
		Running:      running,
		Workers:      e.opts.Workers,
		QueueDepth:   e.opts.QueueDepth,
		CacheLen:     cacheLen,
		CacheCap:     e.opts.CacheSize,
		Jobs:         tracked,
		StoreEntries: storeEntries,
		SeriesBytes:  int(e.seriesBytes.Load()),
	}
}

// worker is the main loop of one pool goroutine: pop the best pending
// job, run it, publish the result, repeat until shutdown drains the
// queue.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for e.pending.Len() == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.pending.Len() == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		j := heap.Pop(&e.pending).(*Job)
		e.running++
		e.mu.Unlock()

		e.runJob(j)

		e.mu.Lock()
		e.running--
		e.mu.Unlock()
	}
}

// runJob executes one job, which a worker has popped from the queue, to
// a terminal state. The job is the worker's alone to finish: Cancel
// finishes only jobs it removes from the queue.
func (e *Engine) runJob(j *Job) {
	if j.ctx.Err() != nil {
		e.finishJob(j, nil, context.Canceled)
		return
	}
	j.mu.Lock()
	j.state = Running
	j.started = time.Now()
	j.notifyLocked()
	j.mu.Unlock()
	e.log.Debug("job running", "job", j.id, "kind", j.spec.Kind(), "trace", j.trace)

	out, err := e.execute(j)
	if errors.Is(err, errRequeue) {
		e.requeue(j)
		return
	}
	if err == nil && j.ctx.Err() != nil {
		err = j.ctx.Err()
	}
	e.finishJob(j, out, err)
}

// finishJob moves j to its terminal state, seals its series, updates
// counters, and caches successful outputs. Watchers hear of the
// terminal state only once the output is published. Nothing may run
// for j any more: its series takes no frames after the seal.
func (e *Engine) finishJob(j *Job, out *Output, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = Done
		j.output = out
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = Canceled
		j.err = err
	default:
		j.state = Failed
		j.err = err
	}
	// The janitor reads seriesBytes once the job is terminal, under j.mu.
	j.seriesBytes = j.series.Seal()
	e.seriesBytes.Add(int64(j.seriesBytes))
	state := j.state
	prePersisted := j.prePersisted
	latency := j.finished.Sub(j.started)
	j.mu.Unlock()

	if state == Done && e.jobLatency != nil {
		e.jobLatency.Observe(latency.Seconds())
	}
	if state == Failed {
		e.log.Warn("job failed", "job", j.id, "kind", j.spec.Kind(), "trace", j.trace,
			"duration", latency, "error", err)
	} else {
		e.log.Info("job finished", "job", j.id, "kind", j.spec.Kind(), "trace", j.trace,
			"state", string(state), "duration", latency)
	}

	// Publish the result to the cache, the persistent store, and the
	// counters before notifying watchers and closing done: a waiter or
	// watcher that resubmits the identical spec the instant it sees the
	// job done must observe the cache entry, and a daemon restarted the
	// instant a job reports done must find its record on disk.
	switch state {
	case Done:
		e.completed.Add(1)
		e.mu.Lock()
		e.cache.put(j.fingerprint, out)
		e.mu.Unlock()
		// A clustered execution persisted before releasing its lease
		// (see computeHolding); writing the identical record twice is
		// harmless but pointless.
		if !prePersisted {
			e.persist(j.fingerprint, out)
		}
	case Canceled:
		e.canceled.Add(1)
	case Failed:
		e.failed.Add(1)
	}
	j.mu.Lock()
	j.notifyLocked()
	j.mu.Unlock()
	close(j.done)
	j.cancel()
}

// Job is one scheduled unit of work. All exported methods are safe for
// concurrent use.
type Job struct {
	id          string
	seq         int64
	spec        Spec
	priority    int
	fingerprint string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// heapIndex is maintained by jobHeap and guarded by the engine mutex.
	heapIndex int

	// node is the engine's node identity, fixed at submission.
	node string
	// trace is the request correlation identifier, fixed at submission.
	trace string
	// series records the job's observable frames (one per simulation
	// round of the traced trial); always non-nil. finishJob seals it.
	series *obs.Series
	// unobserved runs the job without a tracer, so its series stays
	// empty (RunSync jobs and their sweep children); fixed at submission.
	unobserved bool

	mu                          sync.Mutex
	state                       State
	progressDone, progressTotal int
	output                      *Output
	err                         error
	cacheHit                    bool
	prePersisted                bool
	leaseWaited                 bool
	seriesBytes                 int // sealed series size, set by finishJob
	resumed                     int
	graphBuildsAvoided          int
	submitted, started          time.Time
	finished                    time.Time
	parent                      *Job
	children                    []*Job
	subs                        map[chan Status]struct{}
}

// ID returns the engine-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Fingerprint returns the content address of the job's spec.
func (j *Job) Fingerprint() string { return j.fingerprint }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Series returns the job's observable frame stream. It is always
// non-nil; jobs whose spec is not observable simply never append to it.
func (j *Job) Series() *obs.Series { return j.series }

// Children returns the child point jobs of a sweep job, in point order;
// nil for point jobs.
func (j *Job) Children() []*Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*Job(nil), j.children...)
}

// Watch subscribes to the job's status updates: state transitions and
// progress changes. The channel carries the latest snapshot with
// latest-wins coalescing (a slow reader skips intermediate updates, but
// always observes the most recent one, including the terminal state).
// The returned cancel must be called to release the subscription.
func (j *Job) Watch() (<-chan Status, func()) {
	ch := make(chan Status, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan Status]struct{})
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
	return ch, cancel
}

// notifyLocked publishes the current snapshot to all watchers with
// latest-wins coalescing; j.mu must be held. All publishers hold j.mu,
// so the drain-then-push below cannot interleave with another publisher
// — only with the reader, in whose favor it resolves.
func (j *Job) notifyLocked() {
	if len(j.subs) == 0 {
		return
	}
	s := j.snapshotLocked()
	for ch := range j.subs {
		select {
		case ch <- s:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- s:
			default:
			}
		}
	}
}

// reportProgress is handed to Spec.Run as its progress callback.
func (j *Job) reportProgress(done, total int) {
	j.mu.Lock()
	j.progressDone, j.progressTotal = done, total
	j.notifyLocked()
	j.mu.Unlock()
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning the job output. Canceled and failed jobs return their error.
func (j *Job) Wait(ctx context.Context) (*Output, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.err
}

// Output returns the result of a Done job.
func (j *Job) Output() (*Output, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == Done:
		return j.output, nil
	case j.state.Terminal():
		return nil, j.err
	default:
		return nil, ErrNotFinished
	}
}

// Status is a JSON-friendly snapshot of a job.
type Status struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	State       State     `json:"state"`
	Priority    int       `json:"priority"`
	CacheHit    bool      `json:"cache_hit"`
	Fingerprint string    `json:"fingerprint"`
	Done        int       `json:"progress_done"`
	Total       int       `json:"progress_total"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Node identifies the cluster node tracking this job; empty on a
	// single-node daemon.
	Node string `json:"node,omitempty"`
	// Trace is the request correlation identifier the job was submitted
	// with, if any.
	Trace string `json:"trace,omitempty"`
	// Resumed counts the sweep points served from the cache or the
	// persistent store at submission time — the points a resumed sweep
	// did not have to schedule. Zero for point jobs.
	Resumed int `json:"resumed,omitempty"`
	// GraphBuildsAvoided counts graph resolutions this job (or, for a
	// sweep, its children) served from the graph artifact store's memory
	// or disk tier instead of rebuilding the topology.
	GraphBuildsAvoided int `json:"graph_builds_avoided,omitempty"`
	// Parent is the sweep job this point job belongs to, if any.
	Parent string `json:"parent,omitempty"`
	// Children are the point-job IDs of a sweep job, in point order.
	Children []string `json:"children,omitempty"`
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked builds the status; j.mu must be held.
func (j *Job) snapshotLocked() Status {
	s := Status{
		ID:                 j.id,
		Kind:               j.spec.Kind(),
		State:              j.state,
		Priority:           j.priority,
		CacheHit:           j.cacheHit,
		Fingerprint:        j.fingerprint,
		Done:               j.progressDone,
		Total:              j.progressTotal,
		SubmittedAt:        j.submitted,
		StartedAt:          j.started,
		FinishedAt:         j.finished,
		Node:               j.node,
		Trace:              j.trace,
		Resumed:            j.resumed,
		GraphBuildsAvoided: j.graphBuildsAvoided,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.parent != nil {
		s.Parent = j.parent.id
	}
	for _, c := range j.children {
		s.Children = append(s.Children, c.id)
	}
	return s
}

// jobHeap orders pending jobs by descending priority, then ascending
// submission sequence (FIFO within a priority class). It implements
// heap.Interface; the engine mutex guards all access.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }

func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}

func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].heapIndex = a
	h[b].heapIndex = b
}

func (h *jobHeap) Push(x interface{}) {
	j := x.(*Job)
	j.heapIndex = len(*h)
	*h = append(*h, j)
}

func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*h = old[:n-1]
	return j
}

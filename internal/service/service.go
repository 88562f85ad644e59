package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/process"
)

// Server serves the engine API. Create one with New and mount Handler on
// an http.Server.
type Server struct {
	eng     *engine.Engine
	cl      cluster.Backend
	cs      *cluster.Server
	started time.Time
	streams atomic.Int64 // open /events streams
	reg     *metrics.Registry
	log     *slog.Logger
	httpDur *metrics.Histogram
}

// Option configures a Server.
type Option func(*Server)

// WithCluster exposes a cluster membership on GET /v1/nodes and the
// read tier of /v1/cluster/*. Without it those endpoints report a
// single-node daemon. Pass the node's Backend: on the coordinator it
// reads the arbiter in-process, on a runner it proxies reads to the
// coordinator.
func WithCluster(cl cluster.Backend) Option {
	return func(s *Server) { s.cl = cl }
}

// WithClusterServer mounts the coordinator's arbiter behind the
// mutation tier of /v1/cluster/* — lease CAS with fencing tokens,
// result pushes, journal records, announcements, node registration.
// Only the daemon that hosts the arbiter (the coordinator) carries
// it; without it those routes answer 503 unavailable.
func WithClusterServer(cs *cluster.Server) Option {
	return func(s *Server) { s.cs = cs }
}

// WithRegistry serves GET /metrics from reg. Share one registry between
// the engine (engine.Options.Registry) and the server so job, round,
// and HTTP metrics land in one exposition. Without it the server uses a
// private registry holding only its own collectors.
func WithRegistry(reg *metrics.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithLogger sets the request logger. Without it requests are not
// logged.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// New wraps an engine in an API server.
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, started: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.registerMetrics()
	return s
}

// routes is the single source of truth for the v1 surface: Handler
// mounts exactly these patterns and Routes reports them, which is what
// scripts/docs_check.sh lints docs/API.md against.
func (s *Server) routes() []struct {
	pattern string
	h       http.HandlerFunc
} {
	return []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /v1/processes", s.processes},
		{"GET /v1/nodes", s.nodes},
		{"POST /v1/jobs", s.submit},
		{"GET /v1/jobs", s.list},
		{"GET /v1/jobs/{id}", s.status},
		{"GET /v1/jobs/{id}/result", s.result},
		{"GET /v1/jobs/{id}/events", s.events},
		{"GET /v1/jobs/{id}/series", s.series},
		{"DELETE /v1/jobs/{id}", s.cancel},
		{"POST /v1/sweeps", s.submitSweep},
		{"GET /v1/sweeps/{id}", s.sweepStatus},
		{"GET /v1/cluster/nodes", s.clusterNodes},
		{"POST /v1/cluster/nodes", s.clusterRegisterNode},
		{"DELETE /v1/cluster/nodes/{id}", s.clusterUnregisterNode},
		{"POST /v1/cluster/leases", s.clusterAcquireLease},
		{"POST /v1/cluster/leases/{key}/renew", s.clusterRenewLease},
		{"POST /v1/cluster/leases/{key}/release", s.clusterReleaseLease},
		{"GET /v1/cluster/results/{key}", s.clusterGetResult},
		{"PUT /v1/cluster/results/{key}", s.clusterPutResult},
		{"GET /v1/cluster/journal", s.clusterJournal},
		{"POST /v1/cluster/journal", s.clusterRecordComputed},
		{"GET /v1/cluster/sweeps", s.clusterAnnouncements},
		{"POST /v1/cluster/sweeps", s.clusterAnnounce},
		{"DELETE /v1/cluster/sweeps/{fp}", s.clusterCompleteSweep},
		{"GET /v1/cluster/cancels", s.clusterCancellations},
		{"POST /v1/cluster/cancels", s.clusterCancel},
		{"GET /healthz", s.healthz},
		{"GET /metrics", s.metrics},
	}
}

// Handler returns the route mux for the API, wrapped in the trace
// middleware: every request gets a correlation ID (the client's
// X-Request-Id, or a fresh one), echoed back in the response, carried
// on the request context into job submission, and attached to the
// request log line. The SSE streaming path depends on the raw
// ResponseWriter, so the middleware deliberately does not wrap w.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.pattern, r.h)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get("X-Request-Id")
		if trace == "" {
			trace = obs.NewTraceID()
		}
		w.Header().Set("X-Request-Id", trace)
		start := time.Now()
		mux.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), trace)))
		dur := time.Since(start)
		if s.httpDur != nil {
			s.httpDur.Observe(dur.Seconds())
		}
		s.log.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "trace", trace, "dur", dur)
	})
}

// Routes returns every registered route pattern ("METHOD /path"), the
// machine-readable route inventory the docs linter checks docs/API.md
// against.
func Routes() []string {
	var s Server
	rs := s.routes()
	patterns := make([]string, len(rs))
	for i, r := range rs {
		patterns[i] = r.pattern
	}
	return patterns
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Kind     string          `json:"kind"`
	Priority int             `json:"priority"`
	Spec     json.RawMessage `json:"spec"`
}

// processes serves the discovery listing: every registered process with
// its parameter schema, the machine-readable half of the v1 contract.
func (s *Server) processes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"processes": process.Catalog()})
}

// nodes serves cluster discovery: the members registered with the
// arbiter, with liveness judged from their heartbeats. On a
// single-node daemon it reports {"cluster": false} and an empty list.
func (s *Server) nodes(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"cluster": false,
			"nodes":   []cluster.NodeInfo{},
		})
		return
	}
	nodes, err := s.cl.Nodes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"cluster": true,
		"node":    s.cl.NodeID(),
		"role":    s.cl.Role(),
		"nodes":   nodes,
	})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad request body: %w", err), "")
		return
	}
	spec, err := engine.DecodeSpec(req.Kind, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err, "GET /v1/processes lists the registered processes and their parameter schemas")
		return
	}
	job, err := s.eng.SubmitTraced(spec, req.Priority, obs.TraceID(r.Context()))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{"job": job.Snapshot()})
}

// list serves the job listing: deterministically ordered (most recent
// submission first, job ID as the tie-break) and optionally filtered by
// ?status=queued|running|done|failed|canceled, so scripted clients can
// assert on the output.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("status")
	switch engine.State(filter) {
	case "", engine.Queued, engine.Running, engine.Done, engine.Failed, engine.Canceled:
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("unknown status filter %q", filter),
			"valid filters: queued, running, done, failed, canceled")
		return
	}
	jobs := s.eng.Jobs()
	statuses := make([]engine.Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.Snapshot()
		if filter != "" && st.State != engine.State(filter) {
			continue
		}
		statuses = append(statuses, st)
	}
	sort.SliceStable(statuses, func(a, b int) bool {
		if !statuses[a].SubmittedAt.Equal(statuses[b].SubmittedAt) {
			return statuses[a].SubmittedAt.After(statuses[b].SubmittedAt)
		}
		return statuses[a].ID > statuses[b].ID
	})
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": statuses})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"job": job.Snapshot()})
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job", r.PathValue("id"))
		return
	}
	out, err := job.Output()
	if err != nil {
		if errors.Is(err, engine.ErrNotFinished) {
			writeError(w, http.StatusConflict, codeNotFinished, err, "poll the job status or stream /events until terminal")
		} else {
			// Terminal but unsuccessful: surface the job error itself.
			writeError(w, http.StatusUnprocessableEntity, codeJobFailed, err, "")
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"job":    job.Snapshot(),
		"result": out,
	})
}

// sweepRequest is the POST /v1/sweeps body.
type sweepRequest struct {
	Priority int             `json:"priority"`
	Spec     json.RawMessage `json:"spec"`
}

func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad request body: %w", err), "")
		return
	}
	spec, err := engine.DecodeSpec("sweep", req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err, "")
		return
	}
	job, err := s.eng.SubmitTraced(spec, req.Priority, obs.TraceID(r.Context()))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{"sweep": job.Snapshot()})
}

func (s *Server) sweepStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "sweep", r.PathValue("id"))
		return
	}
	snap := job.Snapshot()
	if snap.Kind != "sweep" {
		writeError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("job %q is not a sweep", snap.ID), "use /v1/jobs/{id} for point jobs")
		return
	}
	children := job.Children()
	childStatuses := make([]engine.Status, 0, len(children))
	for _, c := range children {
		childStatuses = append(childStatuses, c.Snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sweep":    snap,
		"children": childStatuses,
	})
}

// eventsPoll is how often an events stream reads its job's series for
// new frames between status updates.
const eventsPoll = 25 * time.Millisecond

// events streams job telemetry over Server-Sent Events until the job
// is terminal or the client disconnects. The stream multiplexes two
// event types:
//
//	event: status
//	data: {Status JSON}
//
//	id: <next frame cursor>
//	event: frames
//	data: [Frame JSON, ...]
//
// Status events are latest-wins coalesced (a slow consumer skips
// intermediate progress states, never the terminal one). Frames events
// carry batches of per-round observable frames from the job's series;
// the id line is the series cursor after the batch, so a reconnecting
// client sends it back as Last-Event-ID and resumes without replaying
// frames it already has. Each stream reads the series at its own
// cursor, so it loses no frame the series still retains; a stream that
// falls more than Cap frames behind skips the overwritten ones, as
// /series does. Frames never trail the terminal status.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal,
			fmt.Errorf("response writer does not support streaming"), "")
		return
	}
	// Watch before the initial snapshot so no transition between
	// snapshot and subscription is lost.
	updates, unwatch := job.Watch()
	defer unwatch()
	s.streams.Add(1)
	defer s.streams.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	sendStatus := func(st engine.Status) {
		data, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
		fl.Flush()
	}

	// cursor is the next series index this client needs; a reconnect
	// resumes from the Last-Event-ID it saw.
	var cursor uint64
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if v, err := strconv.ParseUint(lei, 10, 64); err == nil {
			cursor = v
		}
	}
	series := job.Series()
	sendFrames := func() {
		frames, next := series.Since(cursor)
		if len(frames) == 0 {
			return
		}
		cursor = next
		data, err := json.Marshal(frames)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: frames\ndata: %s\n\n", next, data)
		fl.Flush()
	}

	// Backfill retained frames, then the initial snapshot. The snapshot
	// is taken first: a job terminal in it has sealed every frame, so
	// the backfill holds them all.
	st := job.Snapshot()
	sendFrames()
	sendStatus(st)
	if st.State.Terminal() {
		return
	}
	poll := time.NewTicker(eventsPoll)
	defer poll.Stop()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case st := <-updates:
			if st.State.Terminal() {
				// The series is sealed before the terminal notify.
				sendFrames()
				sendStatus(st)
				return
			}
			sendStatus(st)
		case <-poll.C:
			sendFrames()
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// series serves the job's retained observable frames as JSON: the
// trajectory of the traced trial (coverage, frontier size, extremal
// frontier positions per round). ?since= resumes from a cursor
// previously returned in next, reading only newer frames.
func (s *Server) series(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job", r.PathValue("id"))
		return
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("bad since cursor %q: %v", q, err),
				"pass the next value from a previous /series response")
			return
		}
		since = v
	}
	ser := job.Series()
	frames, next := ser.Since(since)
	if frames == nil {
		frames = []obs.Frame{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"job":      job.ID(),
		"frames":   frames,
		"next":     next,
		"capacity": ser.Cap(),
	})
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.eng.Job(id); !ok {
		writeNotFound(w, "job", id)
		return
	}
	canceled := s.eng.Cancel(id)
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "canceled": canceled})
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// registerMetrics installs the server's function-backed collectors in
// the registry: the historical engine counters and gauges (names
// unchanged from the hand-written exposition they replace), the open
// event streams, and HTTP request latency. Values are read at scrape time
// from the engine's own atomic counters, so nothing is double-counted.
func (s *Server) registerMetrics() {
	counters := []struct {
		name string
		help string
		get  func(engine.Metrics) int64
	}{
		{"cobrad_jobs_submitted_total", "Jobs accepted by the engine.", func(m engine.Metrics) int64 { return m.Submitted }},
		{"cobrad_jobs_completed_total", "Jobs finished successfully.", func(m engine.Metrics) int64 { return m.Completed }},
		{"cobrad_jobs_failed_total", "Jobs finished with an error.", func(m engine.Metrics) int64 { return m.Failed }},
		{"cobrad_jobs_canceled_total", "Jobs canceled before completion.", func(m engine.Metrics) int64 { return m.Canceled }},
		{"cobrad_cache_hits_total", "Submissions served from the result cache.", func(m engine.Metrics) int64 { return m.CacheHits }},
		{"cobrad_store_hits_total", "Cache misses served from the persistent store.", func(m engine.Metrics) int64 { return m.StoreHits }},
		{"cobrad_store_errors_total", "Persistent store read/write failures.", func(m engine.Metrics) int64 { return m.StoreErrors }},
		{"cobrad_jobs_rejected_total", "Submissions rejected (queue full or shutdown).", func(m engine.Metrics) int64 { return m.Rejected }},
		{"cobrad_jobs_evicted_total", "Terminal jobs evicted from the job table by TTL.", func(m engine.Metrics) int64 { return m.Evicted }},
		{"cobrad_points_computed_total", "Jobs whose spec actually ran on this node (not cache/store/peer-served).", func(m engine.Metrics) int64 { return m.Computed }},
		{"cobrad_points_adopted_total", "Results adopted from the shared store after a cluster peer computed them.", func(m engine.Metrics) int64 { return m.Adopted }},
		{"cobrad_lease_waits_total", "Jobs that waited on a foreign point lease at least once.", func(m engine.Metrics) int64 { return m.LeaseWaits }},
	}
	for _, c := range counters {
		get := c.get
		s.reg.NewCounterFunc(c.name, c.help, func() float64 { return float64(get(s.eng.Metrics())) })
	}
	gauges := []struct {
		name string
		help string
		get  func(engine.Metrics) int
	}{
		{"cobrad_jobs_queued", "Jobs waiting in the priority queue.", func(m engine.Metrics) int { return m.Queued }},
		{"cobrad_jobs_running", "Jobs executing on the worker pool.", func(m engine.Metrics) int { return m.Running }},
		{"cobrad_workers", "Worker pool size.", func(m engine.Metrics) int { return m.Workers }},
		{"cobrad_queue_capacity", "Maximum pending queue depth.", func(m engine.Metrics) int { return m.QueueDepth }},
		{"cobrad_cache_entries", "Result cache entries resident.", func(m engine.Metrics) int { return m.CacheLen }},
		{"cobrad_cache_capacity", "Result cache entry capacity.", func(m engine.Metrics) int { return m.CacheCap }},
		{"cobrad_jobs_tracked", "Jobs resident in the job table.", func(m engine.Metrics) int { return m.Jobs }},
		{"cobrad_store_entries", "Records resident in the persistent store.", func(m engine.Metrics) int { return m.StoreEntries }},
		{"cobrad_job_series_bytes", "Bytes of packed frames held by finished jobs in the job table.", func(m engine.Metrics) int { return m.SeriesBytes }},
	}
	for _, g := range gauges {
		get := g.get
		s.reg.NewGaugeFunc(g.name, g.help, func() float64 { return float64(get(s.eng.Metrics())) })
	}
	if s.cl != nil {
		s.reg.NewGaugeFunc("cobrad_cluster_nodes_alive", "Cluster members with a recent heartbeat.", func() float64 {
			alive := 0
			if nodes, err := s.cl.Nodes(); err == nil {
				for _, n := range nodes {
					if n.Alive {
						alive++
					}
				}
			}
			return float64(alive)
		})
	}
	s.reg.NewGaugeFunc("cobrad_hub_subscribers", "Open SSE event streams.", func() float64 {
		return float64(s.streams.Load())
	})
	s.reg.NewCounterFunc("graphstore_builds_total", "Graphs built from spec (artifact store misses).", func() float64 {
		return float64(s.eng.Graphs().Stats().Builds)
	})
	s.reg.NewCounterVecFunc("graphstore_hits_total", "Graph resolutions served without building, by tier.", "tier", func() map[string]float64 {
		st := s.eng.Graphs().Stats()
		return map[string]float64{"mem": float64(st.MemHits), "disk": float64(st.DiskHits)}
	})
	s.reg.NewGaugeFunc("graphstore_mmap_bytes", "Bytes of graph artifacts currently memory-mapped.", func() float64 {
		return float64(s.eng.Graphs().Stats().MmapBytes)
	})
	s.reg.NewGaugeFunc("graphstore_idle_bytes", "Bytes of resident graphs no job holds, kept within the registry's idle budget.", func() float64 {
		return float64(s.eng.Graphs().Stats().IdleBytes)
	})
	s.reg.NewCounterFunc("graphstore_mem_evictions_total", "Idle graphs evicted from memory to stay within the idle budget.", func() float64 {
		return float64(s.eng.Graphs().Stats().MemEvicted)
	})
	s.httpDur = s.reg.NewHistogram("cobrad_http_request_duration_seconds", "HTTP request latency.", metrics.DurationBuckets)
}

// metrics renders every registered collector in the Prometheus text
// exposition format (0.0.4), dependency-free via internal/obs/metrics:
// sorted families, # HELP / # TYPE preambles, histograms with
// cumulative buckets.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Machine-readable error codes of the v1 error envelope. The client SDK
// switches on these; human-facing text lives in message and detail.
const (
	codeBadRequest  = "bad_request"
	codeNotFound    = "not_found"
	codeNotFinished = "not_finished"
	codeJobFailed   = "job_failed"
	codeUnavailable = "unavailable"
	codeInternal    = "internal"
	codeLeaseLost   = "lease_lost"
)

// ErrorCodes returns every machine-readable code the error envelope
// can carry — like Routes, an inventory the docs linter checks
// docs/API.md against.
func ErrorCodes() []string {
	return []string{
		codeBadRequest, codeNotFound, codeNotFinished,
		codeJobFailed, codeUnavailable, codeInternal, codeLeaseLost,
	}
}

// APIError is the uniform error envelope carried under the "error" key
// of every non-2xx JSON response.
type APIError struct {
	// Code is a stable machine-readable identifier (bad_request,
	// not_found, not_finished, job_failed, unavailable, internal,
	// lease_lost).
	Code string `json:"code"`
	// Message is the human-readable error description.
	Message string `json:"message"`
	// Detail, when present, is an actionable hint.
	Detail string `json:"detail,omitempty"`
}

func writeError(w http.ResponseWriter, status int, code string, err error, detail string) {
	writeJSON(w, status, map[string]APIError{"error": {
		Code:    code,
		Message: err.Error(),
		Detail:  detail,
	}})
}

func writeNotFound(w http.ResponseWriter, what, id string) {
	writeError(w, http.StatusNotFound, codeNotFound,
		fmt.Errorf("unknown %s %q", what, id),
		"terminal jobs are evicted from the job table after the TTL; resubmit the spec to recover its result from the cache or store")
}

// writeSubmitError maps an engine submission error to its envelope: 503
// unavailable for backpressure and shutdown, 400 bad_request otherwise.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, engine.ErrQueueFull) {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, err, "retry with backoff: the pending queue is at capacity")
		return
	}
	if errors.Is(err, engine.ErrShutdown) {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, err, "")
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, err, "")
}

package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/store"
)

// Layers, named after the modules they cover.
const (
	layerService = "service" // internal/service, client
	layerEngine  = "engine"  // internal/engine
	layerKernel  = "kernel"  // internal/process, core, rng, bitset, sim
	layerGraph   = "graph"   // internal/graph, graphstore
	layerStore   = "store"   // internal/store
	layerCluster = "cluster" // internal/cluster, retry
)

// span is one timed interval at a layer boundary. Times are Unix
// nanoseconds, the clock job Status timestamps use too.
type span struct {
	Op    int    `json:"op"` // the client operation it served; -1 for background work
	Node  string `json:"node"`
	Layer string `json:"layer"`
	// Kind is "call" for a logical cluster or store call, "rpc" for one
	// HTTP attempt under it, "wait" for a lease wait, "job"/"run" for
	// engine spans derived from job Status timestamps.
	Kind  string `json:"kind,omitempty"`
	Name  string `json:"name"`
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
	OK    bool   `json:"ok,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func now() int64 { return time.Now().UnixNano() }

// tracer records spans from outside the program, through its public
// injection points: the client's http.RoundTripper, the runners'
// cluster.HTTPConfig.Client, engine.Options.Store, each node's
// cluster.Backend, and graphstore.Options.Build. Spans stay in memory
// and are written when the run ends. A nil *tracer wraps nothing.
type tracer struct {
	on       atomic.Bool
	mu       sync.Mutex
	spans    []span
	waits    map[string]int64 // node/key → when its claim lost
	adopts   map[string]int64 // sweep fingerprint → first adoption by a runner
	announce map[string]int64 // sweep fingerprint → announcement start
}

func newTracer() *tracer {
	return &tracer{waits: map[string]int64{}, adopts: map[string]int64{}, announce: map[string]int64{}}
}

// start and stop bound the timed phase; set-up traffic is not recorded.
// Once stop returns, no wrapper touches the recorded state again: every
// write re-checks on under mu, and stop passes through mu after clearing
// it.
func (t *tracer) start() { t.on.Store(true) }
func (t *tracer) stop() {
	t.on.Store(false)
	t.mu.Lock()
	// Empty on purpose: waits out any write that saw on still set.
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if t.on.Load() {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// transport wraps an HTTP transport: each round trip is a span from the
// request until its response body is closed, with the bytes read.
func (t *tracer) transport(node, layer string, base http.RoundTripper) http.RoundTripper {
	return &traceTransport{t: t, node: node, layer: layer, base: base}
}

type traceTransport struct {
	t           *tracer
	node, layer string
	base        http.RoundTripper
}

func (rt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	sp := span{Op: opFromContext(req.Context()), Node: rt.node, Layer: rt.layer, Kind: "rpc", Start: now()}
	sp.Name, sp.Key = route(req.Method, req.URL.Path)
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		sp.End = now()
		rt.t.add(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.End, sp.Bytes = now(), n
		rt.t.add(sp)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// route names a request by its API route, with the content key the
// path carries, if any.
func route(method, path string) (name, key string) {
	switch {
	case method == http.MethodPost && (path == "/v1/jobs" || path == "/v1/sweeps"):
		return "submit", ""
	case strings.HasSuffix(path, "/events"):
		return "events", ""
	case strings.HasSuffix(path, "/result"):
		return "result", ""
	case path == "/v1/cluster/leases":
		return "lease_acquire", ""
	case strings.HasPrefix(path, "/v1/cluster/leases/"):
		rest := strings.TrimPrefix(path, "/v1/cluster/leases/")
		k, action, _ := strings.Cut(rest, "/")
		return "lease_" + action, k
	case strings.HasPrefix(path, "/v1/cluster/results/"):
		k := strings.TrimPrefix(path, "/v1/cluster/results/")
		if method == http.MethodPut {
			return "result_put", k
		}
		return "result_get", k
	case path == "/v1/cluster/journal":
		if method == http.MethodPost {
			return "journal", ""
		}
		return "journal_read", ""
	case path == "/v1/cluster/sweeps":
		if method == http.MethodPost {
			return "announce", ""
		}
		return "announcements", ""
	case strings.HasPrefix(path, "/v1/cluster/sweeps/"):
		return "complete", strings.TrimPrefix(path, "/v1/cluster/sweeps/")
	case path == "/v1/cluster/cancels":
		if method == http.MethodPost {
			return "cancel", ""
		}
		return "cancellations", ""
	case strings.HasPrefix(path, "/v1/cluster/nodes"):
		return "nodes_" + strings.ToLower(method), ""
	}
	return "other", ""
}

// store wraps a node's engine.Options.Store.
func (t *tracer) store(node string, inner engine.ResultStore) engine.ResultStore {
	if t == nil {
		return inner
	}
	return &tracedStore{t: t, node: node, inner: inner}
}

type tracedStore struct {
	t     *tracer
	node  string
	inner engine.ResultStore
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	if !s.t.on.Load() {
		return s.inner.Get(key)
	}
	start := now()
	s.t.endWait(s.node, key, start)
	data, ok, err := s.inner.Get(key)
	s.t.add(span{Op: -1, Node: s.node, Layer: layerStore, Kind: "call", Name: "get", Key: key,
		Start: start, End: now(), Bytes: int64(len(data)), OK: ok})
	return data, ok, err
}

func (s *tracedStore) Put(key string, payload []byte) error {
	if !s.t.on.Load() {
		return s.inner.Put(key, payload)
	}
	start := now()
	err := s.inner.Put(key, payload)
	s.t.add(span{Op: -1, Node: s.node, Layer: layerStore, Kind: "call", Name: "put", Key: key,
		Start: start, End: now(), Bytes: int64(len(payload)), OK: err == nil})
	return err
}

func (s *tracedStore) Len() int { return s.inner.Len() }

// backend wraps a runner's cluster.Backend: every logical call is a
// span, and a lost claim opens a lease-wait span that the next store
// read or claim of the same key on that node closes.
func (t *tracer) backend(node string, inner cluster.Backend) cluster.Backend {
	if t == nil {
		return inner
	}
	return &tracedBackend{Backend: inner, t: t, node: node}
}

type tracedBackend struct {
	cluster.Backend
	t    *tracer
	node string
}

func (b *tracedBackend) call(name, key string, start int64, ok bool) {
	if b.t.on.Load() {
		b.t.add(span{Op: -1, Node: b.node, Layer: layerCluster, Kind: "call", Name: name, Key: key,
			Start: start, End: now(), OK: ok})
	}
}

func (b *tracedBackend) Claim(key string) (bool, store.Lease, error) {
	start := now()
	if b.t.on.Load() {
		b.t.endWait(b.node, key, start)
	}
	held, lease, err := b.Backend.Claim(key)
	b.call("claim", key, start, held)
	if !held && err == nil && b.t.on.Load() {
		b.t.startWait(b.node, key, now())
	}
	return held, lease, err
}

func (b *tracedBackend) Renew(key string) error {
	start := now()
	err := b.Backend.Renew(key)
	b.call("renew", key, start, err == nil)
	return err
}

func (b *tracedBackend) Release(key string) {
	start := now()
	b.Backend.Release(key)
	b.call("release", key, start, true)
}

func (b *tracedBackend) RecordComputed(key string) {
	start := now()
	b.Backend.RecordComputed(key)
	b.call("record_computed", key, start, true)
}

func (b *tracedBackend) AnnounceSweep(fp, kind string, spec json.RawMessage, priority int) error {
	start := now()
	b.t.mu.Lock()
	if b.t.on.Load() {
		b.t.announce[fp] = start
	}
	b.t.mu.Unlock()
	err := b.Backend.AnnounceSweep(fp, kind, spec, priority)
	b.call("announce", fp, start, err == nil)
	return err
}

func (b *tracedBackend) CompleteSweep(fp string) {
	start := now()
	b.Backend.CompleteSweep(fp)
	b.call("complete", fp, start, true)
}

func (b *tracedBackend) Announcements() ([]cluster.Announcement, error) {
	start := now()
	a, err := b.Backend.Announcements()
	b.call("announcements", "", start, err == nil)
	return a, err
}

func (b *tracedBackend) Cancellations() ([]cluster.CancelRecord, error) {
	start := now()
	c, err := b.Backend.Cancellations()
	b.call("cancellations", "", start, err == nil)
	return c, err
}

func (t *tracer) startWait(node, key string, at int64) {
	t.mu.Lock()
	if t.on.Load() {
		t.waits[node+"/"+key] = at
	}
	t.mu.Unlock()
}

func (t *tracer) endWait(node, key string, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := node + "/" + key
	if from, ok := t.waits[k]; ok && t.on.Load() {
		delete(t.waits, k)
		t.spans = append(t.spans, span{Op: -1, Node: node, Layer: layerCluster, Kind: "wait",
			Name: "lease_wait", Key: key, Start: from, End: at})
	}
}

// adopted notes when a runner's watch loop adopted an announced sweep.
func (t *tracer) adopted(node, fp string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, seen := t.adopts[fp]; !seen && t.on.Load() {
		t.adopts[fp] = now()
	}
	t.mu.Unlock()
}

// build wraps a graph store's builder, timing every topology build.
func (t *tracer) build(node string) func(string, uint64) (*graph.Graph, error) {
	if t == nil {
		return nil
	}
	return func(spec string, seed uint64) (*graph.Graph, error) {
		start := now()
		g, err := cli.ParseGraph(spec, seed)
		if t.on.Load() {
			t.add(span{Op: -1, Node: node, Layer: layerGraph, Kind: "call", Name: "build", Key: spec,
				Start: start, End: now(), OK: err == nil})
		}
		return g, err
	}
}

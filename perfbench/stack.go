package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/obs/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

// baseTransport is the process's default HTTP transport as the
// runtime created it, before a traced run wraps http.DefaultTransport.
// Each runner clones it, as a separate cobrad process would have its
// own.
var baseTransport = http.DefaultTransport.(*http.Transport)

// clusterTimings are cluster-sweep's lease, heartbeat and poll
// intervals, set explicitly: cobrad's default 1 s poll would leave a
// sweep mostly asleep between lease checks.
type clusterTimings struct {
	LeaseTTLMillis  int64 `json:"lease_ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	PollMillis      int64 `json:"poll_ms"`
}

var defaultClusterTimings = clusterTimings{LeaseTTLMillis: 5000, HeartbeatMillis: 50, PollMillis: 20}

func (c clusterTimings) leaseTTL() time.Duration {
	return time.Duration(c.LeaseTTLMillis) * time.Millisecond
}
func (c clusterTimings) heartbeat() time.Duration {
	return time.Duration(c.HeartbeatMillis) * time.Millisecond
}
func (c clusterTimings) poll() time.Duration { return time.Duration(c.PollMillis) * time.Millisecond }

// node is one in-process cobrad: its engine, graph store and HTTP
// service on a loopback listener, and on a cluster its membership and
// watch loop, wired the way cmd/cobrad wires them.
type node struct {
	id      string
	url     string
	eng     *engine.Engine
	graphs  *graphstore.Store
	backend cluster.Backend
	srv     *http.Server
	served  chan error

	watchStop chan struct{}
	watchDone chan struct{}

	// adopted holds the jobs the watch loop started for announced
	// sweeps, by fingerprint, until settle waits them out.
	adoptMu sync.Mutex
	adopted map[string]*engine.Job
}

// stack is everything a run serves from, plus its clients.
type stack struct {
	dir     string
	nodes   []*node // serving nodes, the one clients talk to first
	coord   *node   // the cluster's coordinator; nil on a single node
	clients []*client.Client
	rts     []*http.Transport // the runners' own transports
	tracer  *tracer

	warmup     *engine.Output // sweep workloads: the warm-up sweep's result
	warmupID   string         // and its job on the first node
	repeatOuts [][]byte       // point-jobs: the repeat set's results, encoded
	closeOnce  sync.Once
}

// setup builds the stack for one set-up round and performs the warm-up
// the timed phase reuses. Readiness is event-driven: the listeners are
// bound before the first request, and the warm-up requests themselves
// prove the service answers.
func setup(w *workload, p *plan, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("create store dir: %w", err)
	}
	s := &stack{dir: dir, tracer: tr}
	if w.cluster {
		err = s.startCluster()
	} else {
		err = s.startSingle(w.workers())
	}
	if err != nil {
		s.close()
		return nil, err
	}
	// client.New ignores its options, WithHTTPClient included: every
	// client rides http.DefaultTransport, which a traced run wraps.
	for c := 0; c < w.clients; c++ {
		cl, err := client.New(s.nodes[0].url)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	if err := s.warm(p); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *stack) startSingle(workers int) error {
	st, err := store.Open(s.dir)
	if err != nil {
		return err
	}
	gs, err := graphstore.Open(graphstore.Options{Dir: filepath.Join(s.dir, "graphs"), Build: s.tracer.build("node")})
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	eng := engine.New(engine.Options{
		Workers: workers, QueueDepth: 256, CacheSize: 1024,
		Store: s.tracer.store("node", st), Graphs: gs, Registry: reg,
	})
	n := &node{id: "node", eng: eng, graphs: gs}
	s.nodes = append(s.nodes, n)
	return n.serve(service.New(eng, service.WithRegistry(reg)).Handler())
}

// startCluster starts a disk-backed coordinator and two diskless HTTP
// runners. The coordinator's engine never adopts sweeps; it arbitrates
// the runners' /v1/cluster/* RPCs on its own store.
func (s *stack) startCluster() error {
	ct := defaultClusterTimings
	st, err := store.Open(s.dir)
	if err != nil {
		return err
	}
	cl, err := cluster.Join(st, cluster.Config{NodeID: "coord", Role: cluster.RoleCoordinator,
		LeaseTTL: ct.leaseTTL(), Heartbeat: ct.heartbeat(), Poll: ct.poll()})
	if err != nil {
		return err
	}
	gs, err := graphstore.Open(graphstore.Options{Dir: filepath.Join(s.dir, "graphs")})
	if err != nil {
		cl.Leave()
		return err
	}
	reg := metrics.NewRegistry()
	eng := engine.New(engine.Options{Workers: 1, QueueDepth: 256, CacheSize: 1024,
		Store: st, Cluster: cl, NodeID: "coord", Graphs: gs, Registry: reg})
	coord := &node{id: "coord", eng: eng, graphs: gs, backend: cl}
	s.coord = coord
	if err := coord.serve(service.New(eng, service.WithRegistry(reg), service.WithCluster(cl),
		service.WithClusterServer(cluster.NewServer(st, cl))).Handler()); err != nil {
		cl.Leave()
		return err
	}
	coord.watch(cl, nil, nil)

	for _, id := range []string{"runner-a", "runner-b"} {
		rt := baseTransport.Clone()
		var hrt http.RoundTripper = rt
		if s.tracer != nil {
			hrt = s.tracer.transport(id, layerCluster, rt)
		}
		hb, err := cluster.JoinHTTP(cluster.HTTPConfig{BaseURL: coord.url, NodeID: id, Role: cluster.RoleRunner,
			LeaseTTL: ct.leaseTTL(), Heartbeat: ct.heartbeat(), Poll: ct.poll(),
			Client: &http.Client{Transport: hrt, Timeout: 15 * time.Second}})
		if err != nil {
			return err
		}
		s.rts = append(s.rts, rt)
		backend := s.tracer.backend(id, hb)
		rs := s.tracer.store(id, hb.RemoteStore())
		gs, err := graphstore.Open(graphstore.Options{Build: s.tracer.build(id)})
		if err != nil {
			hb.Leave()
			return err
		}
		reg := metrics.NewRegistry()
		eng := engine.New(engine.Options{Workers: 1, QueueDepth: 256, CacheSize: 1024,
			Store: rs, Cluster: backend, NodeID: id, Graphs: gs, Registry: reg})
		n := &node{id: id, eng: eng, graphs: gs, backend: backend}
		s.nodes = append(s.nodes, n)
		if err := n.serve(service.New(eng, service.WithRegistry(reg), service.WithCluster(backend)).Handler()); err != nil {
			return err
		}
		n.watch(backend, rs, s.tracer)
	}
	return nil
}

// serve starts the node's HTTP service on a fresh loopback port.
func (n *node) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: h}
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()
	return nil
}

// watch runs the cluster watch loop as cobrad does: every role applies
// cross-node cancellations; runners also adopt announced sweeps.
func (n *node) watch(b cluster.Backend, rs engine.ResultStore, tr *tracer) {
	hooks := cluster.WatchHooks{
		Cancel: func(fp string, at time.Time) { n.eng.CancelFingerprint(fp, at) },
	}
	if b.Role().Adopts() {
		hooks.HasResult = func(fp string) bool {
			_, ok, _ := rs.Get(fp)
			return ok
		}
		hooks.Submit = func(a cluster.Announcement) error {
			if n.eng.HasLiveFingerprint(a.Fingerprint) {
				return nil
			}
			spec, err := engine.DecodeSpec(a.Kind, a.Spec)
			if err != nil {
				return nil
			}
			j, err := n.eng.Submit(spec, a.Priority)
			if err != nil {
				if errors.Is(err, engine.ErrQueueFull) {
					return err
				}
				return nil
			}
			n.adoptMu.Lock()
			n.adopted[a.Fingerprint] = j
			n.adoptMu.Unlock()
			tr.adopted(n.id, a.Fingerprint)
			return nil
		}
	}
	n.adopted = map[string]*engine.Job{}
	n.watchStop = make(chan struct{})
	n.watchDone = make(chan struct{})
	go func() {
		defer close(n.watchDone)
		cluster.Watch(b, n.watchStop, hooks)
	}()
}

// settle waits until every node's adopted copy of the sweep fp has
// finished. A runner that adopted the client's sweep keeps working on
// it after the client has the aggregate: it wakes from its lease waits
// on its next poll and then adopts its peer's results. Without the
// wait, the client's next requests would share the CPU with that tail
// or not, depending on the poll's phase. A single node adopts nothing,
// so there settle returns at once.
func (s *stack) settle(ctx context.Context, fp string) error {
	for _, n := range s.nodes {
		n.adoptMu.Lock()
		j := n.adopted[fp]
		delete(n.adopted, fp)
		n.adoptMu.Unlock()
		if j == nil {
			continue
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// shutdown stops the node in cobrad's order: HTTP, watch loop, engine,
// membership.
func (n *node) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.srv != nil {
		_ = n.srv.Shutdown(ctx) // a timed-out shutdown still closes the listener
		<-n.served
	}
	if n.watchStop != nil {
		close(n.watchStop)
		<-n.watchDone
	}
	_ = n.eng.Shutdown(ctx) // on timeout the engine cancels what is left and still stops
	if n.backend != nil {
		n.backend.Leave()
	}
}

// close stops every node, runners before the coordinator they
// unregister from, and removes the store directory.
func (s *stack) close() {
	s.closeOnce.Do(func() {
		baseTransport.CloseIdleConnections()
		for _, rt := range s.rts {
			rt.CloseIdleConnections()
		}
		for _, n := range s.nodes {
			n.shutdown()
		}
		if s.coord != nil {
			s.coord.shutdown()
		}
		for _, rt := range s.rts {
			rt.CloseIdleConnections()
		}
		_ = os.RemoveAll(s.dir) // temporary data; a leftover is cleared with the work dir
	})
}

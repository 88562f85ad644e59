// Command cobrad is the simulation daemon: it serves cobra-walk,
// cover-time, and experiment jobs over HTTP, backed by the shared
// internal/engine worker pool and result cache.
//
// Usage:
//
//	cobrad -addr :8080 -workers 8 -queue 256 -cache 1024 \
//	       -data-dir /var/lib/cobrad -job-ttl 15m \
//	       -store-max-bytes 1073741824 -store-max-age 720h
//
// Submit a cover-time job and poll it:
//
//	curl -s localhost:8080/v1/jobs -d '{"kind":"process","spec":{"process":"cobra","graph":"grid:2,16","params":{"k":2},"trials":20,"seed":1}}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/result
//
// Submit a server-side sweep and stream its progress:
//
//	curl -s localhost:8080/v1/sweeps -d '{"spec":{"child":"process","process":"cobra","family":"grid:2","sizes":[8,16,32],"k":2,"trials":20,"seed":1}}'
//	curl -sN localhost:8080/v1/jobs/j000001/events
//
// Observability: every observable job records a per-round series
// (coverage, frontier size, extremal frontier positions) streamed as
// "frames" events on /v1/jobs/{id}/events and queryable at
// /v1/jobs/{id}/series; GET /metrics serves the Prometheus text
// exposition; -log-level controls structured request and job logging;
// -pprof serves net/http/pprof on a loopback side listener:
//
//	cobrad -pprof &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// With -data-dir set, results persist across restarts in a
// content-addressed store: resubmitting a finished spec after a restart
// is served from disk without re-running a single trial. -job-ttl
// bounds how long terminal jobs stay addressable by job ID (their
// results remain reachable by resubmission). -store-max-bytes and
// -store-max-age bound the store itself: a background sweep evicts
// expired records first, then the oldest records until the size cap is
// met, so a long-running daemon's disk footprint stays bounded. Graphs
// resolve through a content-addressed artifact store under
// <data-dir>/graphs: built once per (spec, seed) fingerprint, then
// mmapped by every process sharing the directory; -graph-cache-bytes
// bounds its disk footprint. In memory, graphs no job holds are kept
// within a fixed 64 MiB budget (not a flag), least recently released
// evicted first. Both stores sit on one file layer (store.Files), and
// one GC loop sweeps both every -store-gc-interval.
//
// Several cobrad instances form a cluster around one arbiter. The
// coordinator (-cluster coordinator with -data-dir) hosts it: point
// leases with fencing tokens, the node registry, sweep announcements,
// cancellations and the exactly-once compute journal, kept beside its
// result store. Runners (-cluster runner) join it with -cluster-url
// and need no shared filesystem: their lease claims, results, journal
// records and heartbeats are /v1/cluster/* RPCs, and the coordinator's
// own workers claim through the same arbiter in-process. A sweep
// submitted to any node is announced, runners adopt it, and every point
// is computed exactly once cluster-wide. A killed node's leases expire
// after -lease-ttl and survivors re-run only the points it never
// stored. A runner's -data-dir is optional and holds only its graph
// artifact cache; a second coordinator on the same -data-dir fails at
// startup.
//
//	cobrad -addr :8080 -data-dir /var/lib/cobrad -cluster coordinator -node-id a &
//	cobrad -addr :8081 -cluster runner -cluster-url http://127.0.0.1:8080 -node-id b &
//	curl -s localhost:8080/v1/nodes
//
// cobrad shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, lets in-flight HTTP requests finish, then drains the job
// queue up to -drain before cancelling whatever is left.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/obs/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
		queue         = flag.Int("queue", 256, "pending job queue depth")
		cache         = flag.Int("cache", 1024, "result cache entries (negative disables)")
		dataDir       = flag.String("data-dir", "", "persistent result store directory (empty: in-memory only)")
		jobTTL        = flag.Duration("job-ttl", engine.DefaultJobTTL, "terminal job retention in the job table (negative disables eviction)")
		drain         = flag.Duration("drain", 30*time.Second, "max time to drain jobs on shutdown")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "persistent store size cap in bytes; oldest records evicted beyond it (0 disables)")
		storeMaxAge   = flag.Duration("store-max-age", 0, "persistent store record retention; older records evicted (0 disables)")
		storeGCEvery  = flag.Duration("store-gc-interval", time.Minute, "how often the store GC sweep runs")
		graphCacheMax = flag.Int64("graph-cache-bytes", 0, "graph artifact store size cap in bytes on disk; oldest artifacts evicted beyond it (0 disables). Idle graphs in memory have a fixed 64 MiB budget")
		clusterMode   = flag.String("cluster", "off", "cluster role: off|coordinator|runner (a coordinator hosts the arbiter on -data-dir; a runner joins it with -cluster-url)")
		clusterURL    = flag.String("cluster-url", "", "coordinator base URL to join over HTTP (runner role)")
		nodeID        = flag.String("node-id", "", "cluster node identity (default <hostname>-<pid>)")
		leaseTTL      = flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "point lease TTL; a dead node's work is reclaimed after this long")
		logLevel      = flag.String("log-level", "info", "structured log level: debug|info|warn|error")
		pprofOn       = flag.Bool("pprof", false, "serve net/http/pprof on a side listener (-pprof-addr)")
		pprofAddr     = flag.String("pprof-addr", "127.0.0.1:6060", "pprof listen address (with -pprof)")
	)
	flag.Parse()
	switch {
	case *clusterMode == "coordinator" && (*dataDir == "" || *clusterURL != ""):
		fatal(errors.New("cobrad: -cluster coordinator hosts the arbiter: it needs -data-dir and no -cluster-url"))
	case *clusterMode != "coordinator" && *clusterMode != "off" && *clusterURL == "":
		fatal(fmt.Errorf("cobrad: -cluster %s joins the coordinator with -cluster-url", *clusterMode))
	case *clusterMode == "off" && *clusterURL != "":
		fatal(errors.New("cobrad: -cluster-url requires -cluster runner"))
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("cobrad: bad -log-level %q: %w", *logLevel, err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	reg := metrics.NewRegistry()

	opts := engine.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheSize:  *cache,
		JobTTL:     *jobTTL,
		Logger:     logger,
		Registry:   reg,
	}
	gcStop := make(chan struct{})
	var gcDone chan struct{}
	var backend *cluster.Member // the cluster membership, whatever its transport
	var cs *cluster.Server      // the coordinator's arbiter: serves /v1/cluster/* mutations
	if *dataDir != "" {
		// With -cluster-url, the local directory holds only the graph
		// artifact cache: results, leases, and the journal live on the
		// coordinator.
		var st *store.Store
		if *clusterURL == "" {
			var err error
			if st, err = store.Open(*dataDir); err != nil {
				fatal(err)
			}
			if skipped := st.Skipped(); skipped > 0 {
				log.Printf("cobrad: store scan skipped %d invalid record files in %s", skipped, *dataDir)
			}
			log.Printf("cobrad: persistent store at %s (%d records, %d bytes)", *dataDir, st.Len(), st.TotalBytes())
			opts.Store = st
			st.SetLimits(store.Limits{MaxBytes: *storeMaxBytes, MaxAge: *storeMaxAge})
			if *clusterMode == "coordinator" {
				cl, err := cluster.Join(st, cluster.Config{
					NodeID:   *nodeID,
					Role:     cluster.RoleCoordinator,
					Addr:     *addr,
					LeaseTTL: *leaseTTL,
				})
				if err != nil {
					fatal(err)
				}
				backend = cl
				cs = cluster.NewServer(st, cl)
				log.Printf("cobrad: hosting the cluster arbiter at %s as %s (lease-ttl %v)",
					*dataDir, cl.NodeID(), cl.LeaseTTL())
			}
		}
		// Graph artifacts live beside the result records: every node
		// sharing this -data-dir serves decoded CSR graphs from the same
		// mmapped files instead of rebuilding them.
		gs, err := graphstore.Open(graphstore.Options{Dir: filepath.Join(*dataDir, "graphs")})
		if err != nil {
			fatal(err)
		}
		if skipped := gs.Skipped(); skipped > 0 {
			log.Printf("cobrad: graph store scan skipped %d invalid artifact files", skipped)
		}
		gstats := gs.Stats()
		log.Printf("cobrad: graph artifact store at %s (%d artifacts, %d bytes)",
			filepath.Join(*dataDir, "graphs"), gstats.DiskFiles, gstats.DiskBytes)
		opts.Graphs = gs
		gs.SetLimits(store.Limits{MaxBytes: *graphCacheMax})
		if *storeMaxBytes > 0 || *storeMaxAge > 0 || *graphCacheMax > 0 {
			gcDone = make(chan struct{})
			go gcLoop(st, gs, *storeGCEvery, gcStop, gcDone)
		}
	}
	if *clusterURL != "" {
		hb, err := cluster.JoinHTTP(cluster.HTTPConfig{
			BaseURL:  *clusterURL,
			NodeID:   *nodeID,
			Role:     cluster.Role(*clusterMode),
			Addr:     *addr,
			LeaseTTL: *leaseTTL,
		})
		if err != nil {
			fatal(err)
		}
		backend = hb
		// The coordinator's content-addressed store, over RPC: this node
		// needs no result directory of its own.
		opts.Store = hb.RemoteStore()
		log.Printf("cobrad: joined cluster at %s as %s (%s, lease-ttl %v)",
			*clusterURL, hb.NodeID(), hb.Role(), hb.LeaseTTL())
	}
	if backend != nil {
		opts.Cluster = backend
		opts.NodeID = backend.NodeID()
	}
	eng := engine.New(opts)

	svcOpts := []service.Option{service.WithRegistry(reg), service.WithLogger(logger)}
	if backend != nil {
		svcOpts = append(svcOpts, service.WithCluster(backend))
	}
	if cs != nil {
		svcOpts = append(svcOpts, service.WithClusterServer(cs))
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: service.New(eng, svcOpts...).Handler(),
	}

	// The pprof listener is a separate, default-off server bound to
	// loopback: net/http/pprof registers on http.DefaultServeMux, which
	// the API server deliberately does not use, so profiling never leaks
	// onto the public address.
	if *pprofOn {
		go func() {
			log.Printf("cobrad: pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("cobrad: pprof server: %v", err)
			}
		}()
	}

	// Every clustered node runs the watch loop: roles that adopt drain
	// sweeps announced by the rest of the cluster into their own engine
	// (so a sweep submitted anywhere drains everywhere), and every role
	// applies cross-node cancellations to its local jobs. The loop is
	// the same on every node — it polls the arbiter in-process or over
	// the coordinator's RPCs.
	watchStop := make(chan struct{})
	var watchDone chan struct{}
	if backend != nil {
		hooks := cluster.WatchHooks{
			Cancel: func(fp string, canceledAt time.Time) {
				if n := eng.CancelFingerprint(fp, canceledAt); n > 0 {
					log.Printf("cobrad: canceled %d local job(s) for %.12s (cluster cancellation)", n, fp)
				}
			},
		}
		if backend.Role().Adopts() {
			hooks.HasResult = func(fp string) bool {
				if opts.Store == nil {
					return false
				}
				_, ok, _ := opts.Store.Get(fp)
				return ok
			}
			hooks.Submit = func(ann cluster.Announcement) error {
				if eng.HasLiveFingerprint(ann.Fingerprint) {
					return nil // already running here (submitted directly)
				}
				spec, err := engine.DecodeSpec(ann.Kind, ann.Spec)
				if err != nil {
					log.Printf("cobrad: ignoring undecodable announcement %.12s from %s: %v",
						ann.Fingerprint, ann.Origin, err)
					return nil
				}
				if _, err := eng.Submit(spec, ann.Priority); err != nil {
					if errors.Is(err, engine.ErrQueueFull) {
						return err // backpressure: retried next scan
					}
					log.Printf("cobrad: cannot adopt sweep %.12s from %s: %v",
						ann.Fingerprint, ann.Origin, err)
					return nil
				}
				log.Printf("cobrad: adopted sweep %.12s from node %s", ann.Fingerprint, ann.Origin)
				return nil
			}
		}
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			cluster.Watch(backend, watchStop, hooks)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("cobrad: listening on %s (workers=%d queue=%d cache=%d job-ttl=%v)", *addr, *workers, *queue, *cache, *jobTTL)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("cobrad: shutting down (drain %v)", *drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("cobrad: http shutdown: %v", err)
	}
	// Stop watching before draining, so the engine is not handed new
	// sweeps while it shuts down.
	close(watchStop)
	if watchDone != nil {
		<-watchDone
	}
	if err := eng.Shutdown(shutdownCtx); err != nil {
		log.Printf("cobrad: engine shutdown: %v", err)
	}
	close(gcStop)
	if gcDone != nil {
		<-gcDone
	}
	if backend != nil {
		backend.Leave()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("cobrad: stopped")
}

// gcLoop applies both stores' eviction limits on one cadence: once right
// away, so a daemon restarted over an oversized data directory trims it
// before serving traffic, then every interval until shutdown. st is nil
// on a -cluster-url runner, whose results live on the coordinator.
func gcLoop(st *store.Store, gs *graphstore.Store, interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	sweep := func() {
		if st != nil {
			removed, freed, err := st.GC(time.Now())
			if err != nil {
				log.Printf("cobrad: store gc: %v", err)
			}
			if removed > 0 {
				log.Printf("cobrad: store gc evicted %d records (%d bytes); %d records (%d bytes) remain",
					removed, freed, st.Len(), st.TotalBytes())
			}
		}
		if removed, freed := gs.GC(time.Now()); removed > 0 {
			gst := gs.Stats()
			log.Printf("cobrad: graph gc evicted %d artifacts (%d bytes); %d artifacts (%d bytes) remain",
				removed, freed, gst.DiskFiles, gst.DiskBytes)
		}
	}
	sweep()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			sweep()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Command perfbench is the repository's end-to-end benchmark. One run
// starts cobrad's engine, result store, graph store and HTTP service
// in-process on loopback listeners (plus a coordinator and two HTTP
// runners for cluster-sweep), drives one closed-loop workload through
// the public client SDK, checks every output, and prints a run record
// line followed by one JSON result line.
//
// Build and run one workload from the repository root:
//
//	bash perfbench/run.sh --workload grid-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; --trace 1
// repeats the same workload with spans recorded at the program's public
// injection points and reports the per-layer split instead. See
// perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart anchors the first set-up's clock: set-up time runs from
// the benchmark binary's start to readiness for the first timed
// operation.
var processStart = time.Now()

const (
	// A run builds the whole stack setupRounds times before the timed
	// phase, the last of these serving it. Set-up time is their median.
	// Every round thus starts, as set-up does in use, in a process that
	// has served nothing else yet.
	setupRounds = 7
	// runBudget bounds the timed phase from process start, so a run that
	// stalls still reports (its unfinished operations as failed) well
	// inside the 180 s a run may take.
	runBudget = 150 * time.Second
	// setupBudget bounds every set-up's warm-up the same way.
	setupBudget = 170 * time.Second
	// workDir holds the stores' temporary directories and the trace
	// files, relative to the checkout root the benchmark runs from.
	workDir = ".perfbench"
)

type config struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: grid-sweep, expander-sweep, point-jobs or cluster-sweep")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase on the reference host")
	trace := fs.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, ok := workloads[*name]
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// result is the last stdout line: the contract every run answers with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run performs the set-up rounds, the timed phase, the output checks
// and, for a traced run, the per-layer analysis.
func run(cfg config) (*record, *result, error) {
	w := cfg.workload
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("create work dir: %w", err)
	}
	p := w.plan(cfg.seed, cfg.seconds)
	rec := newRecord(cfg, p)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		http.DefaultTransport = tr.transport("client", layerService, baseTransport)
	}
	var setupTimes []float64
	var st *stack
	for i := 0; i < setupRounds; i++ {
		start := processStart
		if st != nil {
			// The previous stack is closed and dropped, and the round
			// starts from a collected heap returned to the OS, as the
			// first does at process start.
			st.close()
			st = nil
			debug.FreeOSMemory()
			start = time.Now()
		}
		s, err := setup(w, p, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up round %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		st = s
	}
	rec.SetupSeconds = setupTimes

	ctx, cancel := context.WithDeadline(context.Background(), processStart.Add(runBudget))
	defer cancel()
	before := readUsage()
	if tr != nil {
		tr.start()
	}
	timed := runTimed(ctx, st, p)
	if tr != nil {
		tr.stop()
	}
	after := readUsage()

	checkCtx, cancelCheck := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelCheck()
	checkAll(checkCtx, st, p, timed)

	var layers map[string]metric
	if cfg.trace {
		var err error
		if layers, err = analyze(st, tr, timed); err != nil {
			st.close()
			return nil, nil, fmt.Errorf("trace analysis: %w", err)
		}
	}
	st.close()

	m := endToEnd(timed, median(setupTimes), after.sub(before))
	rec.fill(timed)
	res := &result{
		Correct:   timed.failed() == 0,
		Attempted: len(timed.ops),
		Failed:    timed.failed(),
		Metrics:   m,
	}
	if !cfg.trace {
		return rec, res, nil
	}
	res.Metrics = layers
	rec.Traced = m
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	rec.SpansFile = path
	return rec, res, nil
}

// record is the run record printed before the result line: the
// environment and settings behind the numbers, with the sample count
// behind every percentile.
type record struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	Seconds       int                `json:"seconds"`
	Trace         bool               `json:"trace"`
	NumCPU        int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	GoVersion     string             `json:"go_version"`
	EngineWorkers int                `json:"engine_workers"`
	Clients       int                `json:"clients"`
	Cluster       *clusterTimings    `json:"cluster,omitempty"`
	Operations    int                `json:"operations"`
	Shape         string             `json:"shape"`
	SetupSeconds  []float64          `json:"setup_seconds"`
	TimedSeconds  float64            `json:"timed_seconds"`
	Samples       map[string]int     `json:"percentile_samples"`
	Errors        map[string]int     `json:"errors"`
	FirstError    string             `json:"first_error,omitempty"`
	Checks        []string           `json:"checks"`
	Traced        map[string]metric  `json:"traced_end_to_end,omitempty"`
	SpansFile     string             `json:"spans_file,omitempty"`
	Extra         map[string]float64 `json:"counts,omitempty"`
}

func newRecord(cfg config, p *plan) *record {
	w := cfg.workload
	rec := &record{
		Workload:      w.name,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Trace:         cfg.trace,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		EngineWorkers: w.workers(),
		Clients:       w.clients,
		Operations:    p.size(),
		Shape:         w.shape,
	}
	if w.cluster {
		t := defaultClusterTimings
		rec.Cluster = &t
	}
	return rec
}

func (r *record) fill(t *timedRun) {
	r.TimedSeconds = t.wall.Seconds()
	r.Samples = t.sampleCounts()
	r.Errors = t.errorCounts()
	for _, o := range t.ops {
		if o.err != nil {
			r.FirstError = o.err.Error()
			break
		}
	}
	r.Checks = t.checks
	r.Extra = map[string]float64{
		"samples":    float64(t.samples),
		"rounds":     float64(t.rounds),
		"point_jobs": float64(t.pointJobs),
		"fresh_ops":  float64(t.fresh),
		"repeat_ops": float64(len(t.ops) - t.fresh),
		"settle_s":   time.Duration(t.settled.Load()).Seconds(),
	}
}

// Command cobractl is the command-line tool of the cobra-walk
// simulator: batch commands that run a workload to completion and print
// it, daemon commands built on the typed client SDK (package client),
// and graph, which inspects one generated graph locally.
//
// Usage:
//
//	cobractl [-server URL] <command> [flags] [args]
//
// Batch commands (in-process unless a daemon is named):
//
//	cover                sweep a family's k-cobra cover times and fit the scaling exponent
//	experiments          regenerate the paper-reproduction tables E1-E20
//	run                  run one registered process on one graph and summarize its trials
//	graph                print a graph's structural and spectral statistics (always local)
//
// Daemon commands:
//
//	processes            list registered processes with parameter schemas
//	nodes                list cluster members and their liveness
//	journal              list the cluster's exactly-once compute ledger
//	submit               submit one job and (optionally) watch it to completion
//	sweep                submit a server-side sweep across processes × families × ks × sizes
//	watch <job-id>       stream a job's live status (SSE) until terminal;
//	                     -live adds per-round coverage/frontier sparklines
//	result <job-id>      fetch and render the result of a finished job
//	ps                   list jobs, most recent first
//	cancel <job-id>      cancel a queued or running job
//
// Examples:
//
//	cobractl cover -family grid:2 -sizes 8,16,32,64 -k 2 -trials 20
//	cobractl experiments -only E1,E9 -markdown
//	cobractl run -process cobra -graph lollipop:16,16 -param k=2 -param target=31
//	cobractl graph -graph powerlaw:5000,2.5 -stats
//	cobractl graph -graph regular:4096,5 -data-dir /var/lib/cobrad -verify
//	cobractl submit -process cobra -graph grid:2,33 -trials 20 -seed 1 -param k=2 -watch
//	cobractl sweep -processes cobra,push-pull -family cycle -sizes 64,128,256 -trials 10 -seed 1 -param k=2 -watch
//
// A daemon is named by -server or the COBRAD_URL environment variable.
// Daemon commands fall back to http://127.0.0.1:8080; batch commands run
// on a one-worker in-process engine and print the same output either
// way. Daemon commands take -json for raw API payloads.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/sim"
)

const defaultServer = "http://127.0.0.1:8080"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	// The first signal cancels the command; stopping the relay then
	// restores the default action, so a second one kills it outright.
	context.AfterFunc(ctx, stop)
	code := cobractl(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// command is one cobractl subcommand: server is the global -server
// (empty when not given), and the command's output goes to w.
type command func(ctx context.Context, server string, args []string, w io.Writer) error

var commands = map[string]command{
	"cover":       cmdCover,
	"experiments": cmdExperiments,
	"run":         cmdRun,
	"graph":       cmdGraph,
	"processes":   cmdProcesses,
	"nodes":       cmdNodes,
	"journal":     cmdJournal,
	"submit":      cmdSubmit,
	"sweep":       cmdSweep,
	"watch":       cmdWatch,
	"result":      cmdResult,
	"ps":          cmdPS,
	"cancel":      cmdCancel,
}

// cobractl runs one command line, writing the command's output to
// stdout, and returns the exit status.
func cobractl(ctx context.Context, args []string, stdout io.Writer) int {
	// A global -server may precede the command; flag parsing stops at
	// the command name.
	global := flag.NewFlagSet("cobractl", flag.ContinueOnError)
	global.Usage = func() { usage(os.Stderr) }
	server := global.String("server", "", "cobrad base URL")
	switch err := global.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if global.NArg() == 0 {
		usage(os.Stderr)
		return 2
	}
	name, rest := global.Arg(0), global.Args()[1:]
	if name == "help" {
		usage(stdout)
		return 0
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "cobractl: unknown command %q\n\n", name)
		usage(os.Stderr)
		return 2
	}
	if err := cmd(ctx, *server, rest, stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cobractl: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `cobractl — the cobra-walk simulator's command-line tool

usage: cobractl [-server URL] <command> [flags] [args]

batch commands (in-process unless a daemon is named):
  cover                sweep a family's k-cobra cover times (-family/-sizes/-k) and fit the exponent
  experiments          regenerate the paper-reproduction tables (-only/-scale/-markdown/-list)
  run                  run one process on one graph (-process/-graph/-param) and summarize its trials
  graph                print a graph's statistics (-graph/-graph-seed; -dot, -stats, -verify)

daemon commands:
  processes            list registered processes with parameter schemas
  nodes                list cluster members (ID, role, liveness)
  journal              list which node computed each key (the exactly-once ledger)
  submit               submit one job (-process/-graph/-param, or -kind/-spec)
  sweep                submit a sweep (-processes/-family/-sizes/-ks, or -spec)
  watch <job-id>       stream live status until terminal (-live adds observable sparklines)
  result <job-id>      fetch and render the result of a finished job
  ps                   list jobs (-status filters)
  cancel <job-id>      cancel a queued or running job

A daemon is named by -server or $COBRAD_URL; daemon commands fall back
to `+defaultServer+`, batch commands run in-process.
Run "cobractl <command> -h" for command flags.
`)
}

// flagSet builds a command flagset with the shared -server flag, which
// defaults to the global -server, then $COBRAD_URL, then fallback.
func flagSet(name, server, fallback string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("cobractl "+name, flag.ExitOnError)
	doc := "cobrad base URL"
	if fallback == "" {
		doc += "; empty runs in-process"
	}
	return fs, fs.String("server", cmp.Or(server, os.Getenv("COBRAD_URL"), fallback), doc)
}

// newFlagSet is flagSet for the daemon commands: the server falls back
// to defaultServer, and -json selects raw API payloads.
func newFlagSet(name, server string) (*flag.FlagSet, *string, *bool) {
	fs, srv := flagSet(name, server, defaultServer)
	return fs, srv, fs.Bool("json", false, "emit raw API JSON instead of rendered text")
}

// parseFlexible parses fs accepting flags both before and after the
// first positional argument, so "cobractl result j000001 -json" works
// as naturally as "cobractl result -json j000001".
func parseFlexible(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	pos := fs.Args()
	if len(pos) <= 1 {
		return pos, nil
	}
	first := pos[0]
	if err := fs.Parse(pos[1:]); err != nil {
		return nil, err
	}
	return append([]string{first}, fs.Args()...), nil
}

// paramFlag collects repeatable -param name=value flags, inferring JSON
// types the way the schema expects them: numbers and booleans parse as
// such, everything else stays a string.
type paramFlag process.Params

func (p *paramFlag) String() string { return fmt.Sprintf("%v", map[string]any(*p)) }

func (p *paramFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	if *p == nil {
		*p = paramFlag{}
	}
	switch {
	case val == "true" || val == "false":
		(*p)[name] = val == "true"
	default:
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			(*p)[name] = f
		} else {
			(*p)[name] = val
		}
	}
	return nil
}

// specFlags registers the process-spec flags submit and run share on fs,
// bound to the returned spec.
func specFlags(fs *flag.FlagSet) *engine.ProcessSpec {
	spec := &engine.ProcessSpec{}
	fs.StringVar(&spec.Process, "process", "", "registered process name (see cobractl processes)")
	fs.StringVar(&spec.Graph, "graph", "", "graph spec, e.g. grid:2,33")
	fs.Uint64Var(&spec.GraphSeed, "graph-seed", 0, "seed for randomized graph families")
	fs.Var((*paramFlag)(&spec.Params), "param", "process parameter name=value (repeatable)")
	fs.IntVar(&spec.Trials, "trials", 20, "independent trials")
	fs.Uint64Var(&spec.Seed, "seed", 1, "root random seed")
	return spec
}

func cmdProcesses(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("processes", server)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	procs, err := c.Processes(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(w, map[string]any{"processes": procs})
	}
	for _, p := range procs {
		fmt.Fprintf(w, "%s\n    %s\n", p.Name, p.Doc)
		for _, ps := range p.Params {
			attrs := []string{ps.Type}
			if ps.Required {
				attrs = append(attrs, "required")
			} else if ps.Default != nil {
				attrs = append(attrs, fmt.Sprintf("default %v", ps.Default))
			}
			if len(ps.Enum) > 0 {
				attrs = append(attrs, "one of "+strings.Join(ps.Enum, "|"))
			}
			fmt.Fprintf(w, "    -param %-16s %-28s %s\n", ps.Name, "("+strings.Join(attrs, ", ")+")", ps.Doc)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func cmdNodes(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("nodes", server)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	view, err := c.Nodes(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(w, view)
	}
	if !view.Cluster {
		fmt.Fprintln(w, "not clustered (single-node daemon)")
		return nil
	}
	fmt.Fprintf(w, "this node: %s (%s)\n", view.Node, view.Role)
	fmt.Fprintf(w, "%-24s %-12s %-22s %-6s %s\n", "ID", "ROLE", "ADDR", "ALIVE", "LAST SEEN")
	for _, n := range view.Nodes {
		addr := n.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Fprintf(w, "%-24s %-12s %-22s %-6v %s\n",
			n.ID, n.Role, addr, n.Alive, n.LastSeen.Format(time.RFC3339))
	}
	return nil
}

func cmdJournal(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("journal", server)
	node := fs.String("node", "", "filter: entries computed by this node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	entries, err := c.Journal(ctx)
	if err != nil {
		return err
	}
	if *node != "" {
		kept := entries[:0]
		for _, e := range entries {
			if e.Node == *node {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if *asJSON {
		return printJSON(w, map[string]any{"entries": entries})
	}
	fmt.Fprintf(w, "%-64s %-24s %s\n", "KEY", "NODE", "COMPUTED")
	for _, e := range entries {
		fmt.Fprintf(w, "%-64s %-24s %s\n", e.Key, e.Node, e.CompletedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdSubmit(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("submit", server)
	var (
		kind     = fs.String("kind", "process", "job kind: process|experiment|sweep")
		specJSON = fs.String("spec", "", "raw spec JSON (@file reads a file, - reads stdin); overrides the process-spec flags")
		priority = fs.Int("priority", 0, "scheduling priority (higher runs first)")
		watch    = fs.Bool("watch", false, "follow the job to completion and fetch its result")
		proc     = specFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}

	var spec any
	switch {
	case *specJSON != "":
		raw, err := readSpecArg(*specJSON)
		if err != nil {
			return err
		}
		spec = json.RawMessage(raw)
	case *kind == "process":
		if proc.Process == "" || proc.Graph == "" {
			return fmt.Errorf("submit needs -process and -graph (or -spec); see cobractl processes")
		}
		spec = proc
	default:
		return fmt.Errorf("kind %q needs -spec with the raw spec JSON", *kind)
	}

	st, err := c.Submit(ctx, *kind, spec, *priority)
	if err != nil {
		return err
	}
	if !*watch {
		if *asJSON {
			return printJSON(w, map[string]any{"job": st})
		}
		fmt.Fprintf(w, "submitted %s  kind=%s state=%s cache_hit=%v\n", st.ID, st.Kind, st.State, st.CacheHit)
		return nil
	}
	return watchAndRender(ctx, c, st, *asJSON, w)
}

func cmdSweep(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("sweep", server)
	var (
		specJSON  = fs.String("spec", "", "raw SweepSpec JSON (@file reads a file, - reads stdin); overrides the convenience flags")
		child     = fs.String("child", "process", "child job kind: process|experiment")
		processes = fs.String("processes", "", "comma-separated process names (child=process)")
		family    = fs.String("family", "", "family sweep spec, e.g. grid:2 or cycle")
		families  = fs.String("families", "", "comma-separated family sweep specs")
		sizes     = fs.String("sizes", "", "comma-separated size list")
		ks        = fs.String("ks", "", "comma-separated branching factors")
		ids       = fs.String("ids", "", "comma-separated experiment IDs (child=experiment)")
		scale     = fs.String("scale", "", "experiment scale: quick|full (child=experiment)")
		trials    = fs.Int("trials", 20, "independent trials per point")
		seed      = fs.Uint64("seed", 1, "root random seed")
		priority  = fs.Int("priority", 0, "scheduling priority (higher runs first)")
		watch     = fs.Bool("watch", false, "follow the sweep to completion and fetch its result")
		params    paramFlag
	)
	fs.Var(&params, "param", "base process parameter name=value (repeatable, child=process)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}

	var st engine.Status
	if *specJSON != "" {
		raw, err := readSpecArg(*specJSON)
		if err != nil {
			return err
		}
		st, err = c.Submit(ctx, "sweep", json.RawMessage(raw), *priority)
		if err != nil {
			return err
		}
	} else {
		spec := engine.SweepSpec{
			Child:  *child,
			Params: process.Params(params),
			Trials: *trials,
			Seed:   *seed,
			Family: *family,
			Scale:  *scale,
		}
		spec.Processes = splitList(*processes)
		spec.Families = splitList(*families)
		spec.IDs = splitList(*ids)
		if spec.Sizes, err = cli.ParseSizes(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		if spec.Ks, err = cli.ParseSizes(*ks); err != nil {
			return fmt.Errorf("-ks: %w", err)
		}
		if *child == "experiment" {
			spec.Trials = 0 // experiments carry their own trial plans
		}
		st, err = c.SubmitSweep(ctx, spec, *priority)
		if err != nil {
			return err
		}
	}
	if !*watch {
		if *asJSON {
			return printJSON(w, map[string]any{"sweep": st})
		}
		fmt.Fprintf(w, "submitted sweep %s  state=%s cache_hit=%v\n", st.ID, st.State, st.CacheHit)
		return nil
	}
	return watchAndRender(ctx, c, st, *asJSON, w)
}

func cmdWatch(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("watch", server)
	live := fs.Bool("live", false, "render live per-round observables (coverage/frontier sparklines) alongside status")
	pos, err := parseFlexible(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: cobractl watch [-live] <job-id>")
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	st, err := c.Job(ctx, pos[0])
	if err != nil {
		return err
	}
	var final engine.Status
	if *live {
		final, err = followLivePrinting(ctx, c, st, *asJSON, w)
	} else {
		final, err = followPrinting(ctx, c, st, *asJSON, w)
	}
	if err != nil {
		return err
	}
	if final.State != engine.Done {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// followLivePrinting streams the multiplexed events feed, rendering
// per-round observables as they arrive: each status line carries
// coverage and frontier sparklines of the traced trial so far. With
// asJSON every event (status and frames alike) prints as one raw JSON
// line.
func followLivePrinting(ctx context.Context, c *client.Client, st engine.Status, asJSON bool, w io.Writer) (engine.Status, error) {
	const sparkWidth = 40
	var coverage, frontier []float64
	trial := -1
	lastLine := ""
	render := func(s engine.Status) {
		if asJSON {
			data, _ := json.Marshal(map[string]any{"status": s})
			fmt.Fprintln(w, string(data))
			return
		}
		line := fmt.Sprintf("%s  state=%s", s.ID, s.State)
		if s.Total > 0 {
			line += fmt.Sprintf(" progress=%d/%d", s.Done, s.Total)
		}
		if len(coverage) > 0 {
			line += fmt.Sprintf("\n  trial %-4d coverage %s %.0f%%", trial,
				sim.Sparkline(sim.Downsample(coverage, sparkWidth)), 100*coverage[len(coverage)-1])
			line += fmt.Sprintf("\n  %11s frontier %s %d", "",
				sim.Sparkline(sim.Downsample(frontier, sparkWidth)), int(frontier[len(frontier)-1]))
		}
		if line != lastLine {
			fmt.Fprintln(os.Stderr, line)
			lastLine = line
		}
	}
	onFrames := func(frames []obs.Frame) {
		if asJSON {
			data, _ := json.Marshal(map[string]any{"frames": frames})
			fmt.Fprintln(w, string(data))
			return
		}
		for _, f := range frames {
			if f.Trial != trial {
				// A new traced trial starts a fresh trajectory.
				trial = f.Trial
				coverage = coverage[:0]
				frontier = frontier[:0]
			}
			coverage = append(coverage, f.Coverage)
			frontier = append(frontier, float64(f.Frontier))
		}
	}
	if st.State.Terminal() {
		// Finished job: render the retained series once with the
		// terminal status.
		if view, err := c.Series(ctx, st.ID, 0); err == nil {
			onFrames(view.Frames)
		}
		render(st)
		return st, nil
	}
	return c.FollowLive(ctx, st.ID, render, onFrames)
}

func cmdResult(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("result", server)
	pos, err := parseFlexible(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: cobractl result <job-id>")
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	out, st, err := c.Result(ctx, pos[0])
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(w, map[string]any{"job": st, "result": out})
	}
	renderOutput(w, out)
	return nil
}

func cmdPS(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("ps", server)
	status := fs.String("status", "", "filter: queued|running|done|failed|canceled")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	jobs, err := c.Jobs(ctx, *status)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(w, map[string]any{"jobs": jobs})
	}
	fmt.Fprintf(w, "%-9s %-10s %-9s %-10s %-6s %-16s %s\n", "ID", "KIND", "STATE", "PROGRESS", "CACHED", "NODE", "SUBMITTED")
	for _, j := range jobs {
		progress := "-"
		if j.Total > 0 {
			progress = fmt.Sprintf("%d/%d", j.Done, j.Total)
		}
		node := j.Node
		if node == "" {
			node = "-"
		}
		fmt.Fprintf(w, "%-9s %-10s %-9s %-10s %-6v %-16s %s\n",
			j.ID, j.Kind, j.State, progress, j.CacheHit, node, j.SubmittedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdCancel(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv, asJSON := newFlagSet("cancel", server)
	pos, err := parseFlexible(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: cobractl cancel <job-id>")
	}
	c, err := client.New(*srv)
	if err != nil {
		return err
	}
	canceled, err := c.Cancel(ctx, pos[0])
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(w, map[string]any{"id": pos[0], "canceled": canceled})
	}
	if canceled {
		fmt.Fprintf(w, "canceled %s\n", pos[0])
	} else {
		fmt.Fprintf(w, "%s already terminal\n", pos[0])
	}
	return nil
}

// watchAndRender follows a just-submitted job to its terminal state,
// then fetches and renders its result: the -watch path of submit/sweep.
func watchAndRender(ctx context.Context, c *client.Client, st engine.Status, asJSON bool, w io.Writer) error {
	final, err := followPrinting(ctx, c, st, false, w)
	if err != nil {
		return err
	}
	if final.State != engine.Done {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	out, _, err := c.Result(ctx, final.ID)
	if err != nil {
		return err
	}
	if asJSON {
		return printJSON(w, map[string]any{"job": final, "result": out})
	}
	renderOutput(w, out)
	return nil
}

// followPrinting streams status updates to stderr (one line per update,
// or raw JSON lines with asJSON) until the job is terminal.
func followPrinting(ctx context.Context, c *client.Client, st engine.Status, asJSON bool, w io.Writer) (engine.Status, error) {
	last := ""
	onStatus := func(s engine.Status) {
		if asJSON {
			data, _ := json.Marshal(s)
			fmt.Fprintln(w, string(data))
			return
		}
		line := fmt.Sprintf("%s  state=%s", s.ID, s.State)
		if s.Total > 0 {
			line += fmt.Sprintf(" progress=%d/%d", s.Done, s.Total)
		}
		if line != last {
			fmt.Fprintln(os.Stderr, line)
			last = line
		}
	}
	if st.State.Terminal() {
		onStatus(st)
		return st, nil
	}
	return c.Follow(ctx, st.ID, onStatus)
}

// renderOutput prints a job output as human text: tables, summary,
// findings, point count.
func renderOutput(w io.Writer, out *engine.Output) {
	for _, tb := range out.Tables {
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
	if len(out.Summary) > 0 {
		keys := make([]string, 0, len(out.Summary))
		for k := range out.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-16s %.6g\n", k, out.Summary[k])
		}
	}
	for _, f := range out.Findings {
		fmt.Fprintf(w, "finding: %s\n", f)
	}
	if len(out.Points) > 0 {
		fmt.Fprintf(w, "%d sweep points\n", len(out.Points))
	}
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// readSpecArg resolves a -spec argument: literal JSON, @file, or - for
// stdin.
func readSpecArg(arg string) ([]byte, error) {
	switch {
	case arg == "-":
		return io.ReadAll(os.Stdin)
	case strings.HasPrefix(arg, "@"):
		return os.ReadFile(arg[1:])
	default:
		return []byte(arg), nil
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Command cobractl is the operator CLI for the cobrad simulation
// daemon, built entirely on the typed client SDK (package client): what
// the SDK can do, cobractl exposes on the command line.
//
// Usage:
//
//	cobractl [-server URL] <command> [flags] [args]
//
// Commands:
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
//	cobractl processes
//	cobractl submit -process cobra -graph grid:2,33 -trials 20 -seed 1 -param k=2 -watch
//	cobractl sweep -processes cobra,push-pull -family cycle -sizes 64,128,256 -trials 10 -seed 1 -param k=2 -watch
//	cobractl ps -status running
//	cobractl result j000001
//
// The server address comes from -server, or the COBRAD_URL environment
// variable, or http://127.0.0.1:8080. Machine consumers pass -json to
// any command for raw API payloads.
package main

import (
	"context"
	"encoding/json"
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
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/sim"
)

const defaultServer = "http://127.0.0.1:8080"

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	// Accept a global -server before the subcommand as well as the
	// per-command flag, so both orderings read naturally; both the
	// space-separated and the -server=URL spellings work.
	args := os.Args[1:]
	server := ""
	switch {
	case args[0] == "-server" || args[0] == "--server":
		if len(args) < 3 {
			usage(os.Stderr)
			os.Exit(2)
		}
		server, args = args[1], args[2:]
	case strings.HasPrefix(args[0], "-server=") || strings.HasPrefix(args[0], "--server="):
		_, server, _ = strings.Cut(args[0], "=")
		args = args[1:]
		if len(args) == 0 {
			usage(os.Stderr)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "processes":
		err = cmdProcesses(ctx, server, rest)
	case "nodes":
		err = cmdNodes(ctx, server, rest)
	case "journal":
		err = cmdJournal(ctx, server, rest)
	case "submit":
		err = cmdSubmit(ctx, server, rest)
	case "sweep":
		err = cmdSweep(ctx, server, rest)
	case "watch":
		err = cmdWatch(ctx, server, rest)
	case "result":
		err = cmdResult(ctx, server, rest)
	case "ps":
		err = cmdPS(ctx, server, rest)
	case "cancel":
		err = cmdCancel(ctx, server, rest)
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "cobractl: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cobractl: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `cobractl — client for the cobrad simulation daemon

usage: cobractl [-server URL] <command> [flags] [args]

commands:
  processes            list registered processes with parameter schemas
  nodes                list cluster members (ID, role, liveness)
  journal              list which node computed each key (the exactly-once ledger)
  submit               submit one job (-process/-graph/-param, or -kind/-spec)
  sweep                submit a sweep (-processes/-family/-sizes/-ks, or -spec)
  watch <job-id>       stream live status until terminal (-live adds observable sparklines)
  result <job-id>      fetch and render the result of a finished job
  ps                   list jobs (-status filters)
  cancel <job-id>      cancel a queued or running job

The server address comes from -server, $COBRAD_URL, or `+defaultServer+`.
Run "cobractl <command> -h" for command flags.
`)
}

// newFlagSet builds a command flagset with the shared -server and -json
// flags wired in.
func newFlagSet(name, server string) (*flag.FlagSet, *string, *bool) {
	fs := flag.NewFlagSet("cobractl "+name, flag.ExitOnError)
	def := server
	if def == "" {
		def = os.Getenv("COBRAD_URL")
	}
	if def == "" {
		def = defaultServer
	}
	srv := fs.String("server", def, "cobrad base URL")
	asJSON := fs.Bool("json", false, "emit raw API JSON instead of rendered text")
	return fs, srv, asJSON
}

func dial(server string) (*client.Client, error) {
	return client.New(server)
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
type paramFlag struct{ params process.Params }

func (p *paramFlag) String() string { return fmt.Sprintf("%v", p.params) }

func (p *paramFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	if p.params == nil {
		p.params = process.Params{}
	}
	switch {
	case val == "true" || val == "false":
		p.params[name] = val == "true"
	default:
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			p.params[name] = f
		} else {
			p.params[name] = val
		}
	}
	return nil
}

func cmdProcesses(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("processes", server)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := dial(*srv)
	if err != nil {
		return err
	}
	procs, err := c.Processes(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(map[string]any{"processes": procs})
	}
	for _, p := range procs {
		fmt.Printf("%s\n    %s\n", p.Name, p.Doc)
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
			fmt.Printf("    -param %-16s %-28s %s\n", ps.Name, "("+strings.Join(attrs, ", ")+")", ps.Doc)
		}
		fmt.Println()
	}
	return nil
}

func cmdNodes(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("nodes", server)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := dial(*srv)
	if err != nil {
		return err
	}
	view, err := c.Nodes(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(view)
	}
	if !view.Cluster {
		fmt.Println("not clustered (single-node daemon)")
		return nil
	}
	fmt.Printf("this node: %s (%s)\n", view.Node, view.Role)
	fmt.Printf("%-24s %-12s %-22s %-6s %s\n", "ID", "ROLE", "ADDR", "ALIVE", "LAST SEEN")
	for _, n := range view.Nodes {
		addr := n.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Printf("%-24s %-12s %-22s %-6v %s\n",
			n.ID, n.Role, addr, n.Alive, n.LastSeen.Format(time.RFC3339))
	}
	return nil
}

func cmdJournal(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("journal", server)
	node := fs.String("node", "", "filter: entries computed by this node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := dial(*srv)
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
		return printJSON(map[string]any{"entries": entries})
	}
	fmt.Printf("%-64s %-24s %s\n", "KEY", "NODE", "COMPUTED")
	for _, e := range entries {
		fmt.Printf("%-64s %-24s %s\n", e.Key, e.Node, e.CompletedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdSubmit(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("submit", server)
	var (
		kind      = fs.String("kind", "process", "job kind: process|experiment|sweep")
		specJSON  = fs.String("spec", "", "raw spec JSON (@file reads a file, - reads stdin); overrides the convenience flags")
		proc      = fs.String("process", "", "registered process name (kind=process)")
		graph     = fs.String("graph", "", "graph spec, e.g. grid:2,33 (kind=process)")
		graphSeed = fs.Uint64("graph-seed", 0, "seed for randomized graph families")
		trials    = fs.Int("trials", 20, "independent trials")
		seed      = fs.Uint64("seed", 1, "root random seed")
		priority  = fs.Int("priority", 0, "scheduling priority (higher runs first)")
		watch     = fs.Bool("watch", false, "follow the job to completion and fetch its result")
		params    paramFlag
	)
	fs.Var(&params, "param", "process parameter name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := dial(*srv)
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
		if *proc == "" || *graph == "" {
			return fmt.Errorf("submit needs -process and -graph (or -spec); see cobractl processes")
		}
		spec = engine.ProcessSpec{
			Process:   *proc,
			Graph:     *graph,
			GraphSeed: *graphSeed,
			Params:    params.params,
			Trials:    *trials,
			Seed:      *seed,
		}
	default:
		return fmt.Errorf("kind %q needs -spec with the raw spec JSON", *kind)
	}

	st, err := c.Submit(ctx, *kind, spec, *priority)
	if err != nil {
		return err
	}
	if !*watch {
		if *asJSON {
			return printJSON(map[string]any{"job": st})
		}
		fmt.Printf("submitted %s  kind=%s state=%s cache_hit=%v\n", st.ID, st.Kind, st.State, st.CacheHit)
		return nil
	}
	return watchAndRender(ctx, c, st, *asJSON)
}

func cmdSweep(ctx context.Context, server string, args []string) error {
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
	c, err := dial(*srv)
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
			Params: params.params,
			Trials: *trials,
			Seed:   *seed,
			Family: *family,
			Scale:  *scale,
		}
		spec.Processes = splitList(*processes)
		spec.Families = splitList(*families)
		spec.IDs = splitList(*ids)
		if spec.Sizes, err = splitInts(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		if spec.Ks, err = splitInts(*ks); err != nil {
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
			return printJSON(map[string]any{"sweep": st})
		}
		fmt.Printf("submitted sweep %s  state=%s cache_hit=%v\n", st.ID, st.State, st.CacheHit)
		return nil
	}
	return watchAndRender(ctx, c, st, *asJSON)
}

func cmdWatch(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("watch", server)
	live := fs.Bool("live", false, "render live per-round observables (coverage/frontier sparklines) alongside status")
	pos, err := parseFlexible(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: cobractl watch [-live] <job-id>")
	}
	c, err := dial(*srv)
	if err != nil {
		return err
	}
	st, err := c.Job(ctx, pos[0])
	if err != nil {
		return err
	}
	var final engine.Status
	if *live {
		final, err = followLivePrinting(ctx, c, st, *asJSON)
	} else {
		final, err = followPrinting(ctx, c, st, *asJSON)
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
func followLivePrinting(ctx context.Context, c *client.Client, st engine.Status, asJSON bool) (engine.Status, error) {
	const sparkWidth = 40
	var coverage, frontier []float64
	trial := -1
	lastLine := ""
	render := func(s engine.Status) {
		if asJSON {
			data, _ := json.Marshal(map[string]any{"status": s})
			fmt.Println(string(data))
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
			fmt.Println(string(data))
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

func cmdResult(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("result", server)
	pos, err := parseFlexible(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: cobractl result <job-id>")
	}
	c, err := dial(*srv)
	if err != nil {
		return err
	}
	out, st, err := c.Result(ctx, pos[0])
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(map[string]any{"job": st, "result": out})
	}
	renderOutput(out)
	return nil
}

func cmdPS(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("ps", server)
	status := fs.String("status", "", "filter: queued|running|done|failed|canceled")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := dial(*srv)
	if err != nil {
		return err
	}
	jobs, err := c.Jobs(ctx, *status)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(map[string]any{"jobs": jobs})
	}
	fmt.Printf("%-9s %-10s %-9s %-10s %-6s %-16s %s\n", "ID", "KIND", "STATE", "PROGRESS", "CACHED", "NODE", "SUBMITTED")
	for _, j := range jobs {
		progress := "-"
		if j.Total > 0 {
			progress = fmt.Sprintf("%d/%d", j.Done, j.Total)
		}
		node := j.Node
		if node == "" {
			node = "-"
		}
		fmt.Printf("%-9s %-10s %-9s %-10s %-6v %-16s %s\n",
			j.ID, j.Kind, j.State, progress, j.CacheHit, node, j.SubmittedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdCancel(ctx context.Context, server string, args []string) error {
	fs, srv, asJSON := newFlagSet("cancel", server)
	pos, err := parseFlexible(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: cobractl cancel <job-id>")
	}
	c, err := dial(*srv)
	if err != nil {
		return err
	}
	canceled, err := c.Cancel(ctx, pos[0])
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(map[string]any{"id": pos[0], "canceled": canceled})
	}
	if canceled {
		fmt.Printf("canceled %s\n", pos[0])
	} else {
		fmt.Printf("%s already terminal\n", pos[0])
	}
	return nil
}

// watchAndRender follows a just-submitted job to its terminal state,
// then fetches and renders its result: the -watch path of submit/sweep.
func watchAndRender(ctx context.Context, c *client.Client, st engine.Status, asJSON bool) error {
	final, err := followPrinting(ctx, c, st, false)
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
		return printJSON(map[string]any{"job": final, "result": out})
	}
	renderOutput(out)
	return nil
}

// followPrinting streams status updates to stderr (one line per update,
// or raw JSON lines with asJSON) until the job is terminal.
func followPrinting(ctx context.Context, c *client.Client, st engine.Status, asJSON bool) (engine.Status, error) {
	last := ""
	onStatus := func(s engine.Status) {
		if asJSON {
			data, _ := json.Marshal(s)
			fmt.Println(string(data))
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
func renderOutput(out *engine.Output) {
	for _, tb := range out.Tables {
		tb.Fprint(os.Stdout)
		fmt.Println()
	}
	if len(out.Summary) > 0 {
		keys := make([]string, 0, len(out.Summary))
		for k := range out.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-16s %.6g\n", k, out.Summary[k])
		}
	}
	for _, f := range out.Findings {
		fmt.Printf("finding: %s\n", f)
	}
	if len(out.Points) > 0 {
		fmt.Printf("%d sweep points\n", len(out.Points))
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
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

func splitInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

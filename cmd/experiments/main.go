// Command experiments regenerates the paper-reproduction tables of the
// internal/experiments registry (E1-E20), recorded in EXPERIMENTS.md:
// one experiment per theorem, lemma-level mechanism, or remark of
// "Better Bounds for Coalescing-Branching Random Walks".
//
// Usage:
//
//	experiments                     # run everything at quick scale
//	experiments -scale full         # the EXPERIMENTS.md configuration
//	experiments -only E1,E9         # a subset
//	experiments -markdown           # emit Markdown tables
//
// The selected experiments are submitted as ONE sweep job on the shared
// internal/engine scheduler — the same execution core and fan-out path
// behind cobrad's /v1/sweeps endpoint — which runs each experiment as a
// child point job and aggregates the results in ID order; repeated runs
// within one process are served from the result cache. With -server the
// identical sweep is submitted to a remote cobrad daemon through the
// typed client SDK instead of the in-process engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "quick", "experiment scale: quick|full")
		only      = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		seed      = flag.Uint64("seed", 1, "root random seed")
		markdown  = flag.Bool("markdown", false, "emit Markdown tables")
		list      = flag.Bool("list", false, "list experiments and exit")
		outDir    = flag.String("out", "", "also write one Markdown file per experiment to this directory")
		server    = flag.String("server", "", "cobrad base URL; empty runs the sweep in-process")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}

	switch *scaleFlag {
	case "quick", "full":
	default:
		fatal(fmt.Errorf("experiments: unknown scale %q", *scaleFlag))
	}

	runners := experiments.All()
	if *only != "" {
		wanted := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		var filtered []experiments.Runner
		for _, r := range runners {
			if wanted[r.ID] {
				filtered = append(filtered, r)
				delete(wanted, r.ID)
			}
		}
		if len(wanted) > 0 {
			fatal(fmt.Errorf("experiments: unknown IDs requested: %v", keys(wanted)))
		}
		runners = filtered
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	ids := make([]string, len(runners))
	names := make(map[string]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
		names[r.ID] = r.Name
	}
	start := time.Now()
	out, err := client.ExecuteSweep(context.Background(), *server, engine.SweepSpec{
		Child: "experiment",
		IDs:   ids,
		Scale: *scaleFlag,
		Seed:  *seed,
	}, len(runners)+1)
	if err != nil {
		fatal(err)
	}

	for _, p := range out.Points {
		fmt.Printf("\n########## %s — %s [%s scale]\n", p.Experiment, names[p.Experiment], *scaleFlag)
		fmt.Printf("claim: %s\n\n", p.Meta["claim"])
		for _, tb := range p.Tables {
			if *markdown {
				fmt.Println(tb.Markdown())
			} else {
				tb.Fprint(os.Stdout)
				fmt.Println()
			}
		}
		for _, f := range p.Findings {
			fmt.Printf("finding: %s\n", f)
		}
		if *outDir != "" {
			if err := writeMarkdown(*outDir, names[p.Experiment], p, *seed); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("\n%d experiments in %v\n", len(out.Points), time.Since(start).Round(time.Millisecond))
}

// writeMarkdown renders one experiment sweep point as a standalone
// Markdown file.
func writeMarkdown(dir, name string, p engine.SweepPointResult, seed uint64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n\n", p.Experiment, name)
	fmt.Fprintf(&b, "*Claim:* %s\n\n", p.Meta["claim"])
	fmt.Fprintf(&b, "*Configuration:* scale=%s, seed=%d.\n\n", p.Meta["scale"], seed)
	for _, tb := range p.Tables {
		b.WriteString(tb.Markdown())
		b.WriteString("\n")
	}
	b.WriteString("## Findings\n\n")
	for _, f := range p.Findings {
		fmt.Fprintf(&b, "- %s\n", f)
	}
	path := filepath.Join(dir, p.Experiment+".md")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/client"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// cmdCover sweeps a graph family over a size list with the registered
// cobra process, renders the cover times as text, Markdown or CSV, and
// fits the scaling exponent. The -family argument is a cli family sweep
// spec (see cli.FamilySpec): "grid:2" sweeps the side, "regular:5"
// sweeps n at degree 5, "lollipop" sweeps n with clique = path = n/2.
func cmdCover(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv := flagSet("cover", server, "")
	var (
		family = fs.String("family", "grid:2", "family sweep spec: grid:<d> | torus:<d> | cycle | path | star | complete | hypercube | margulis | kary:<k> | lollipop | regular:<d>")
		sizes  = fs.String("sizes", "8,16,32", "comma-separated size list")
		k      = fs.Int("k", 2, "cobra branching factor")
		trials = fs.Int("trials", 20, "independent trials per size")
		seed   = fs.Uint64("seed", 1, "root random seed")
		format = fs.String("format", "text", "output format: text|markdown|csv")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	render, ok := map[string]func(*sim.Table) string{
		"text":     (*sim.Table).String,
		"markdown": (*sim.Table).Markdown,
		"csv":      (*sim.Table).CSV,
	}[*format]
	if !ok {
		return fmt.Errorf("cover: unknown format %q (text|markdown|csv)", *format)
	}
	sizeList, err := cli.ParseSizes(*sizes)
	if err != nil {
		return err
	}
	out, err := client.Execute(ctx, *srv, &engine.SweepSpec{
		Child:   "process",
		Process: "cobra",
		Family:  *family,
		Sizes:   sizeList,
		K:       *k,
		Trials:  *trials,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}

	table := sim.NewTable(
		fmt.Sprintf("%d-cobra cover time sweep: %s", *k, *family),
		"size", "n", "m", "cover mean", "95% CI", "cover max")
	points := make([]sim.Point, len(out.Points))
	for i, p := range out.Points {
		mean, ci, max := sim.SummaryCells(p.Values)
		table.AddRowf(p.Size, int(p.Summary["n"]), int(p.Summary["m"]), mean, ci, max)
		points[i] = sim.Point{X: float64(p.Size), Sample: p.Values}
	}
	fmt.Fprint(w, render(table))
	if len(points) >= 2 {
		fit := sim.FitExponent(points)
		fmt.Fprintf(w, "\nscaling fit: cover ≈ %.3g · size^%.3f   (R² = %.4f)\n",
			fit.Constant, fit.Exponent, fit.R2)
	}
	return nil
}

// cmdExperiments regenerates the paper-reproduction tables of the
// internal/experiments registry (E1-E20), one experiment per theorem,
// lemma-level mechanism or remark of the paper, submitted as one
// experiment sweep; "-scale full" runs the full-size configuration.
func cmdExperiments(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv := flagSet("experiments", server, "")
	var (
		scale    = fs.String("scale", "quick", "experiment scale: quick|full")
		only     = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		seed     = fs.Uint64("seed", 1, "root random seed")
		markdown = fs.Bool("markdown", false, "emit Markdown tables")
		list     = fs.Bool("list", false, "list experiments and exit")
		outDir   = fs.String("out", "", "also write one Markdown file per experiment to this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}
	if *scale != "quick" && *scale != "full" {
		return fmt.Errorf("experiments: unknown scale %q", *scale)
	}

	// Run the selection in registry order, whatever order -only names.
	wanted := map[string]bool{}
	for _, id := range splitList(*only) {
		wanted[id] = true
	}
	var ids []string
	for _, r := range experiments.All() {
		if *only == "" || wanted[r.ID] {
			ids = append(ids, r.ID)
			delete(wanted, r.ID)
		}
	}
	if len(wanted) > 0 {
		return fmt.Errorf("experiments: unknown IDs requested: %v", slices.Sorted(maps.Keys(wanted)))
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	out, err := client.Execute(ctx, *srv, &engine.SweepSpec{
		Child: "experiment",
		IDs:   ids,
		Scale: *scale,
		Seed:  *seed,
	})
	if err != nil {
		return err
	}

	for _, p := range out.Points {
		r, _ := experiments.Get(p.Experiment)
		fmt.Fprintf(w, "\n########## %s — %s [%s scale]\n", p.Experiment, r.Name, *scale)
		fmt.Fprintf(w, "claim: %s\n\n", p.Meta["claim"])
		for _, tb := range p.Tables {
			if *markdown {
				fmt.Fprintln(w, tb.Markdown())
			} else {
				tb.Fprint(w)
				fmt.Fprintln(w)
			}
		}
		for _, f := range p.Findings {
			fmt.Fprintf(w, "finding: %s\n", f)
		}
		if *outDir != "" {
			if err := writeMarkdown(*outDir, r.Name, p, *seed); err != nil {
				return err
			}
		}
	}
	return nil
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
	return os.WriteFile(filepath.Join(dir, p.Experiment+".md"), []byte(b.String()), 0o644)
}

// cmdRun runs one registered process on one graph for independent
// trials and prints the distribution of the per-trial measurement: the
// cover time, or the hitting time of the "target" parameter when the
// process takes one.
func cmdRun(ctx context.Context, server string, args []string, w io.Writer) error {
	fs, srv := flagSet("run", server, "")
	spec := specFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if spec.Process == "" || spec.Graph == "" {
		return fmt.Errorf("run needs -process and -graph; see cobractl processes")
	}
	out, err := client.Execute(ctx, *srv, spec)
	if err != nil {
		return err
	}

	proc := spec.Process
	if len(spec.Params) > 0 {
		// Params hold JSON scalars, which always marshal.
		params, _ := json.Marshal(spec.Params)
		proc += " " + string(params)
	}
	measure := "cover"
	if target, ok := spec.Params["target"]; ok {
		measure = fmt.Sprintf("hit(%v)", target)
	}
	s := stats.Summarize(out.Values)
	fmt.Fprintf(w, "graph     %s: n=%d m=%d\n", spec.Graph, int(out.Summary["n"]), int(out.Summary["m"]))
	fmt.Fprintf(w, "process   %s\n", proc)
	fmt.Fprintf(w, "measure   %s time over %d trials (seed %d)\n", measure, spec.Trials, spec.Seed)
	fmt.Fprintf(w, "mean      %.1f ± %.1f (95%% CI)\n", out.Summary["mean"], out.Summary["ci95"])
	fmt.Fprintf(w, "median    %.1f   [q25 %.1f, q75 %.1f]\n", s.Median, s.Q25, s.Q75)
	fmt.Fprintf(w, "min/max   %.0f / %.0f\n", s.Min, s.Max)
	return nil
}

// Command covertime sweeps a graph family over a size list, measures
// k-cobra cover times, fits the scaling exponent, and renders the
// results as text, Markdown, or CSV.
//
// Usage:
//
//	covertime -family grid:2 -sizes 8,16,32,64 -k 2 -trials 20
//	covertime -family cycle -sizes 128,256,512 -k 2 -format csv
//	covertime -family regular:5 -sizes 512,1024,2048 -trials 30
//
// The -family argument is a cli graph spec with the size parameter
// omitted; covertime appends each size. For two-parameter families the
// size is substituted for the marked position: "grid:2" sweeps the side,
// "regular:5" sweeps n with degree 5, "lollipop" sweeps n with
// clique = path = n/2.
//
// The whole size list is submitted as ONE sweep of the registered
// "cobra" process to the shared internal/engine scheduler — the same
// execution core and fan-out path behind cobrad's /v1/sweeps endpoint —
// which expands it server-side into per-size point jobs with the
// historical seed discipline, so the output is byte-identical to the old
// client-side loop. With -server the identical sweep is submitted to a
// remote cobrad daemon through the typed client SDK instead of the
// in-process engine; the spec, seed discipline, and rendering are the
// same either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/client"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/sim"
)

func main() {
	var (
		family = flag.String("family", "grid:2", "family sweep spec: grid:<d> | torus:<d> | cycle | path | star | complete | hypercube | margulis | kary:<k> | lollipop | regular:<d>")
		sizes  = flag.String("sizes", "8,16,32", "comma-separated size list")
		k      = flag.Int("k", 2, "cobra branching factor")
		trials = flag.Int("trials", 20, "independent trials per size")
		seed   = flag.Uint64("seed", 1, "root random seed")
		format = flag.String("format", "text", "output format: text|markdown|csv")
		server = flag.String("server", "", "cobrad base URL; empty runs the sweep in-process")
	)
	flag.Parse()

	sizeList, err := cli.ParseSizes(*sizes)
	if err != nil {
		fatal(err)
	}

	out, err := client.ExecuteSweep(context.Background(), *server, engine.SweepSpec{
		Child:   "process",
		Process: "cobra",
		Family:  *family,
		Sizes:   sizeList,
		K:       *k,
		Trials:  *trials,
		Seed:    *seed,
	}, len(sizeList))
	if err != nil {
		fatal(err)
	}

	table := sim.NewTable(
		fmt.Sprintf("%d-cobra cover time sweep: %s", *k, *family),
		"size", "n", "m", "cover mean", "95% CI", "cover max")
	var points []sim.Point
	for _, p := range out.Points {
		mean, ci, max := sim.SummaryCells(p.Values)
		table.AddRowf(p.Size, int(p.Summary["n"]), int(p.Summary["m"]), mean, ci, max)
		points = append(points, sim.Point{X: float64(p.Size), Sample: p.Values})
	}

	switch *format {
	case "markdown":
		fmt.Print(table.Markdown())
	case "csv":
		fmt.Print(table.CSV())
	default:
		table.Fprint(os.Stdout)
	}
	if len(points) >= 2 {
		fit := sim.FitExponent(points)
		fmt.Printf("\nscaling fit: cover ≈ %.3g · size^%.3f   (R² = %.4f)\n",
			fit.Constant, fit.Exponent, fit.R2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/graphstore"
	"repro/internal/spectral"
	"repro/internal/stats"
)

// cmdGraph prints structural and spectral statistics of a generated
// graph: size, degree profile, diameter, the second eigenvalue of the
// normalized adjacency operator, the spectral gap, and conductance
// brackets (Cheeger bounds, sweep cut, exact brute force for tiny
// graphs, and analytic values for named families). It always runs
// locally; the server argument is unused.
func cmdGraph(_ context.Context, _ string, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cobractl graph", flag.ExitOnError)
	var (
		spec      = fs.String("graph", "grid:2,17", "graph spec (family:params), e.g. hypercube:8 or powerlaw:5000,2.5; families: "+strings.Join(cli.Families(), " "))
		graphSeed = fs.Uint64("graph-seed", 0, "seed for randomized graph families")
		dot       = fs.Bool("dot", false, "emit Graphviz DOT instead of statistics")
		dataDir   = fs.String("data-dir", "", "cobrad data directory; resolve the graph through its artifact store")
		degStats  = fs.Bool("stats", false, "print the degree histogram")
		verify    = fs.Bool("verify", false, "checksum the stored artifact (requires -data-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verify && *dataDir == "" {
		return fmt.Errorf("graph: -verify requires -data-dir")
	}

	// Resolve through the same artifact store cobrad uses when a data
	// directory is given: a warm artifact is mmapped, a cold one is
	// built and persisted for the daemons sharing the directory.
	gsOpts := graphstore.Options{}
	if *dataDir != "" {
		gsOpts.Dir = filepath.Join(*dataDir, "graphs")
	}
	gs, err := graphstore.Open(gsOpts)
	if err != nil {
		return err
	}
	g, tier, err := gs.ResolveTier(*spec, *graphSeed)
	if err != nil {
		return err
	}
	defer gs.Release(g)
	if *dot {
		return graph.WriteDOT(w, g)
	}
	if *verify {
		digest, err := gs.VerifyArtifact(*spec, *graphSeed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "artifact     %s\n", digest)
		fmt.Fprintf(w, "fingerprint  %s\n", graphstore.Fingerprint(*spec, *graphSeed))
	}
	if *dataDir != "" {
		fmt.Fprintf(w, "served from  %s\n", tier)
	}

	fmt.Fprintf(w, "graph        %s\n", g.Name())
	fmt.Fprintf(w, "vertices     %d\n", g.N())
	fmt.Fprintf(w, "edges        %d\n", g.M())
	if reg, d := g.IsRegular(); reg {
		fmt.Fprintf(w, "degree       %d-regular\n", d)
	} else {
		fmt.Fprintf(w, "degree       min %d, max %d, mean %.2f\n",
			g.MinDegree(), g.MaxDegree(), 2*float64(g.M())/float64(g.N()))
	}
	if *degStats {
		printDegreeHistogram(w, g)
	}
	connected := graph.IsConnected(g)
	fmt.Fprintf(w, "connected    %v\n", connected)
	if connected {
		if g.N() <= 4096 {
			fmt.Fprintf(w, "diameter     %d (exact)\n", graph.Diameter(g))
		} else {
			fmt.Fprintf(w, "diameter     ≥ %d (double sweep)\n", graph.DiameterApprox(g, 0))
		}
	}

	res := spectral.Analyze(g)
	fmt.Fprintf(w, "lambda2      %.6f\n", res.Lambda2)
	fmt.Fprintf(w, "gap          %.6f\n", res.Gap)
	fmt.Fprintf(w, "conductance  [%.6f, %.6f]  (Cheeger lower, min(Cheeger upper, sweep cut))\n",
		res.PhiLow, res.PhiHigh)
	if g.N() <= 20 {
		fmt.Fprintf(w, "conductance  %.6f (exact brute force)\n", spectral.ExactConductance(g))
	}
	if phi, known := analyticConductance(*spec, g); known {
		fmt.Fprintf(w, "conductance  %.6f (analytic)\n", phi)
	}
	if connected && g.N() <= 2048 {
		if mt, ok := spectral.MixingTime(g, 0.25, 1000000); ok {
			fmt.Fprintf(w, "mixing time  %d lazy steps to TV ≤ 1/4 (worst start)\n", mt)
		}
	}
	return nil
}

// printDegreeHistogram renders the degree distribution as at most 16
// equal-width bins with a proportional bar chart.
func printDegreeHistogram(w io.Writer, g *graph.Graph) {
	n := g.N()
	degs := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		degs[v] = float64(g.Degree(v))
	}
	lo, hi := float64(g.MinDegree()), float64(g.MaxDegree())
	if lo == hi {
		fmt.Fprintf(w, "degrees      all %d vertices have degree %d\n", n, int(lo))
		return
	}
	bins := min(int(hi-lo)+1, 16)
	counts := stats.Histogram(degs, lo, hi+1, bins)
	width := (hi + 1 - lo) / float64(bins)
	peak := slices.Max(counts)
	fmt.Fprintf(w, "degrees      histogram (%d bins)\n", bins)
	for i, c := range counts {
		bLo, bHi := lo+float64(i)*width, lo+float64(i+1)*width
		fmt.Fprintf(w, "  [%4d,%4d)  %7d  %s\n", int(bLo), int(bHi), c, strings.Repeat("#", c*40/peak))
	}
}

// analyticConductance returns the known Φ for named families.
func analyticConductance(spec string, g *graph.Graph) (float64, bool) {
	name, _, _ := strings.Cut(spec, ":")
	switch name {
	case "cycle":
		return spectral.CycleConductance(g.N()), true
	case "hypercube":
		dim := 0
		for n := g.N(); n > 1; n /= 2 {
			dim++
		}
		return spectral.HypercubeConductance(dim), true
	case "complete":
		return spectral.CompleteConductance(g.N()), true
	case "torus":
		// Only the 2-D torus formula is tabulated here.
		if reg, d := g.IsRegular(); reg && d == 4 {
			side := 1
			for side*side < g.N() {
				side++
			}
			if side*side == g.N() {
				return spectral.TorusConductance(side), true
			}
		}
	}
	return 0, false
}

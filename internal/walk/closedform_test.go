package walk

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

func TestHarmonicNumber(t *testing.T) {
	if HarmonicNumber(1) != 1 {
		t.Fatal("H_1 != 1")
	}
	if math.Abs(HarmonicNumber(4)-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Fatal("H_4 wrong")
	}
	// H_n ≈ ln n + γ.
	if math.Abs(HarmonicNumber(100000)-(math.Log(100000)+0.5772156649)) > 1e-4 {
		t.Fatal("H_n asymptotic wrong")
	}
}

// trialCap caps each trial of a closed-form test at 20 times its
// reference value, so a walk whose cover count stalls fails within
// moments instead of running out a fixed cap. On the pinned seeds the
// longest trial is 5.2 times its reference (path:16).
func trialCap(ref float64) int { return int(20 * ref) }

// validateClosedForm runs Monte Carlo cover times and checks the closed
// form within 3 standard errors plus 2% model slack.
func validateClosedForm(t *testing.T, g *graph.Graph, start int32, want float64, trials int, seed uint64) {
	t.Helper()
	mean, hw := stats.MeanCI(simpleSample(t, g, start, -1, trials, trialCap(want), seed))
	slack := 1.6*hw + 0.02*want
	if math.Abs(mean-want) > slack {
		t.Fatalf("%s: MC cover %.1f ± %.1f vs closed form %.1f", g.Name(), mean, hw, want)
	}
}

// The complete and cycle cases also run at n = 130, where the walk's
// visited and frontier bitsets span three 64-bit words.

func TestCompleteCoverClosedForm(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
	}{{24, 3}, {130, 4}} {
		validateClosedForm(t, graph.Complete(tc.n), 0, CompleteCoverTimeRW(tc.n), 600, tc.seed)
	}
}

func TestCycleCoverClosedForm(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
	}{{24, 5}, {130, 6}} {
		validateClosedForm(t, graph.Cycle(tc.n), 0, CycleCoverTimeRW(tc.n), 600, tc.seed)
	}
}

func TestPathCoverClosedForm(t *testing.T) {
	n := 16
	validateClosedForm(t, graph.Path(n), 0, PathCoverTimeRW(n), 600, 7)
}

func TestStarCoverClosedForm(t *testing.T) {
	n := 20
	validateClosedForm(t, graph.Star(n), 0, StarCoverTimeRW(n), 600, 9)
}

func TestLollipopOrderOfMagnitude(t *testing.T) {
	// The n³-order reference must be within a small constant factor of
	// the measured max hitting time (clique → path tip).
	m, l := 12, 12
	g := graph.Lollipop(m, l)
	ref := LollipopMaxHittingRW(m, l)
	mean := stats.Mean(simpleSample(t, g, 1, int32(g.N()-1), 60, trialCap(ref), 11))
	if mean < ref/4 || mean > ref*8 {
		t.Fatalf("lollipop hitting %.0f vs reference order %.0f", mean, ref)
	}
}

func TestTorusCoverOrder(t *testing.T) {
	// The DPRZ constant is asymptotic; at side 16 expect agreement
	// within a factor of ~2.5.
	side := 16
	g := graph.Torus(2, side)
	ref := TorusCoverTimeRWOrder(side)
	mean := stats.Mean(simpleSample(t, g, 0, -1, 30, trialCap(ref), 13))
	if mean < ref/3 || mean > ref*3 {
		t.Fatalf("torus cover %.0f vs DPRZ order %.0f", mean, ref)
	}
}

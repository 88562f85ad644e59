package walk

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestExactHittingPathClosedForm(t *testing.T) {
	// End-to-end hitting time on the n-path is (n-1)².
	for _, n := range []int{3, 5, 10, 20} {
		g := graph.Path(n)
		h := ExactHittingTimes(g, int32(n-1), 1e-10, 10000000)
		want := float64((n - 1) * (n - 1))
		if math.Abs(h[0]-want) > 1e-3 {
			t.Fatalf("path(%d) hitting = %v, want %v", n, h[0], want)
		}
	}
}

func TestExactHittingCycleClosedForm(t *testing.T) {
	// Hitting time at distance k on the n-cycle is k(n-k).
	n := 17
	g := graph.Cycle(n)
	h := ExactHittingTimes(g, 0, 1e-10, 10000000)
	for k := 1; k < n; k++ {
		d := k
		if n-k < d {
			d = n - k
		}
		want := float64(k * (n - k))
		if math.Abs(h[k]-want) > 1e-3 {
			t.Fatalf("cycle hitting from %d = %v, want %v (dist %d)", k, h[k], want, d)
		}
	}
}

func TestExactHittingCompleteClosedForm(t *testing.T) {
	// On K_n, hitting any other vertex takes expected n-1 steps.
	n := 12
	g := graph.Complete(n)
	h := ExactHittingTimes(g, 3, 1e-12, 100000)
	for x := 0; x < n; x++ {
		want := float64(n - 1)
		if x == 3 {
			want = 0
		}
		if math.Abs(h[x]-want) > 1e-6 {
			t.Fatalf("K%d hitting from %d = %v, want %v", n, x, h[x], want)
		}
	}
}

func TestExactReturnTimeStationarity(t *testing.T) {
	// Return time to v equals 2m/d(v) for any connected graph.
	for _, g := range []*graph.Graph{
		graph.Lollipop(5, 4), graph.Star(9), graph.Wheel(10), graph.Grid(2, 4),
	} {
		for _, v := range []int32{0, int32(g.N() / 2)} {
			rt := ExactReturnTime(g, v, 1e-11, 10000000)
			want := 2 * float64(g.M()) / float64(g.Degree(v))
			if math.Abs(rt-want) > 1e-3 {
				t.Fatalf("%s: return(%d) = %v, want %v", g.Name(), v, rt, want)
			}
		}
	}
}

func TestExactCommuteSymmetric(t *testing.T) {
	g := graph.Lollipop(6, 6)
	ab := ExactCommuteTime(g, 0, 11, 1e-10, 10000000)
	ba := ExactCommuteTime(g, 11, 0, 1e-10, 10000000)
	if math.Abs(ab-ba) > 1e-3 {
		t.Fatalf("commute not symmetric: %v vs %v", ab, ba)
	}
	// Commute time = 2m * R_eff; for the lollipop tail the effective
	// resistance to the clique is ≈ path length, so commute ≈ 2m*len.
	m := float64(g.M())
	if ab < 2*m*5 || ab > 2*m*7 {
		t.Fatalf("commute %v outside 2m*[5,7] = [%v,%v]", ab, 2*m*5, 2*m*7)
	}
}

func TestMonteCarloMatchesExact(t *testing.T) {
	// The simple walk's Monte Carlo estimate must agree with the exact
	// solver.
	g := graph.Grid(2, 5)
	target := int32(g.N() - 1)
	exact := ExactHittingTimes(g, target, 1e-10, 10000000)
	mean, hw := stats.MeanCI(simpleSample(t, g, 0, target, 400, 10000000, 7))
	if math.Abs(mean-exact[0]) > 3*hw+1e-9 {
		t.Fatalf("MC hitting %v ± %v vs exact %v", mean, hw, exact[0])
	}
}

func TestExactChainHittingMatchesSimpleWalk(t *testing.T) {
	// A Chain encoding the simple random walk must reproduce the plain
	// exact solver.
	g := graph.Cycle(11)
	pi := make([]float64, g.N())
	for i := range pi {
		pi[i] = 1
	}
	c := MetropolisChain(g, pi) // uniform target on regular graph = SRW
	want := ExactHittingTimes(g, 4, 1e-11, 10000000)
	got := ExactChainHittingTimes(c, 4, 1e-11, 10000000)
	for x := range want {
		if math.Abs(got[x]-want[x]) > 1e-3 {
			t.Fatalf("chain hitting[%d] = %v, want %v", x, got[x], want[x])
		}
	}
}

func TestExactChainHittingBiasedFaster(t *testing.T) {
	// The Lemma 16 chain targeting v must hit v faster in expectation
	// than the simple walk from far away... not guaranteed vertex-wise in
	// general, but on the path toward an interior target it is.
	g := graph.Cycle(20)
	target := int32(0)
	biased := ExactChainHittingTimes(InverseDegreeChain(g, target), target, 1e-10, 10000000)
	plain := ExactHittingTimes(g, target, 1e-10, 10000000)
	if biased[10] >= plain[10] {
		t.Fatalf("biased hitting %v not faster than plain %v", biased[10], plain[10])
	}
}

func TestChainMonteCarloMatchesExactChain(t *testing.T) {
	g := graph.Lollipop(5, 5)
	target := int32(9)
	c := InverseDegreeChain(g, target)
	exact := ExactChainHittingTimes(c, target, 1e-10, 10000000)
	const trials = 300
	sum := 0.0
	for i := 0; i < trials; i++ {
		steps, ok := c.HittingTime(0, target, 100000000, rng.NewStream(13, i))
		if !ok {
			t.Fatal("chain did not hit")
		}
		sum += float64(steps)
	}
	mean := sum / trials
	if math.Abs(mean-exact[0]) > exact[0]*0.15 {
		t.Fatalf("chain MC %v vs exact %v", mean, exact[0])
	}
}

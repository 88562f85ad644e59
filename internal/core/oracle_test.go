package core_test

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/epidemic"
	"repro/internal/graph"
	"repro/internal/rng"
)

// chi2Crit[df-1] is the chi-square critical value at p = 1e-4 for df
// degrees of freedom: a statistic above it fails the oracle.
var chi2Crit = [...]float64{
	15.14, 18.42, 21.11, 23.51, 25.74, 27.86, 29.88, 31.83, 33.72, 35.56,
	37.37, 39.13, 40.87, 42.58, 44.26, 45.92, 47.57, 49.19, 50.80, 52.39,
	53.96, 55.52, 57.07, 58.61, 60.14, 61.66, 63.16, 64.66, 66.15, 67.63,
	69.11, 70.57, 72.03, 73.48, 74.93, 76.36, 77.80, 79.22, 80.65, 82.06,
}

// oracleTrials is the number of simulated covers per case. A bin must
// expect at least max(5, oracleTrials/len(chi2Crit)) covers, so no test
// has more degrees of freedom than the table holds.
const oracleTrials = 4000

// outcome is one possible next frontier, as a vertex mask, with its
// probability.
type outcome struct {
	mask int
	p    float64
}

// drawLaw returns, for each vertex, the law of the set of vertices it
// samples in one round when it draws k uniform neighbors with
// replacement: all deg^k index tuples, each with probability deg^-k.
func drawLaw(g *graph.Graph, k int) [][]float64 {
	n := g.N()
	laws := make([][]float64, n)
	for v := range laws {
		nb := g.Neighbors(int32(v))
		law := make([]float64, 1<<n)
		p := math.Pow(float64(len(nb)), -float64(k))
		idx := make([]int, k)
		for {
			m := 0
			for _, i := range idx {
				m |= 1 << nb[i]
			}
			law[m] += p
			j := 0
			for ; j < k; j++ {
				if idx[j]++; idx[j] < len(nb) {
					break
				}
				idx[j] = 0
			}
			if j == k {
				break
			}
		}
		laws[v] = law
	}
	return laws
}

// frontierLaws returns, for every nonempty active set A, the law of the
// next frontier: the union of the independent per-vertex draws of
// A's vertices, built up one vertex at a time.
func frontierLaws(n int, draw [][]float64) [][]outcome {
	sparse := func(law []float64) (out []outcome) {
		for m, p := range law {
			if p != 0 {
				out = append(out, outcome{m, p})
			}
		}
		return out
	}
	size := 1 << n
	laws := make([][]outcome, size)
	for a := 1; a < size; a++ {
		v := bits.TrailingZeros(uint(a))
		rest := a &^ (1 << v)
		if rest == 0 {
			laws[a] = sparse(draw[v])
			continue
		}
		law := make([]float64, size)
		for _, y := range sparse(draw[v]) {
			for _, x := range laws[rest] {
				law[x.mask|y.mask] += x.p * y.p
			}
		}
		laws[a] = sparse(law)
	}
	return laws
}

// coverLaw runs the dynamic program over (active set, covered set)
// pairs from {0} active and covered. law[t] is the exact probability
// that the cover time is t; the program stops once the mass not yet
// covered is below eps, and rest is that mass.
func coverLaw(t *testing.T, n int, laws [][]outcome, eps float64) (law []float64, rest float64) {
	size, full := 1<<n, 1<<n-1
	cur, next := make([]float64, size*size), make([]float64, size*size)
	cur[1*size+1] = 1
	law, rest = []float64{0}, 1
	for rest > eps {
		clear(next)
		hit := 0.0
		for i, p := range cur {
			if p == 0 {
				continue
			}
			c := i & full
			for _, o := range laws[i>>n] {
				if c|o.mask == full {
					hit += p * o.p
				} else {
					next[o.mask*size+(c|o.mask)] += p * o.p
				}
			}
		}
		law = append(law, hit)
		rest -= hit
		cur, next = next, cur
	}
	left := 0.0
	for _, p := range cur {
		left += p
	}
	if math.Abs(left-rest) > 1e-9 {
		t.Fatalf("dynamic program leaks mass: %g uncovered, %g by subtraction", left, rest)
	}
	return law, rest
}

// chiSquare bins the exact law (the last bin taking the tail beyond it)
// so every bin expects at least max(5, trials/len(chi2Crit)) of the
// observed cover times, and returns the statistic and its degrees of
// freedom.
func chiSquare(law []float64, rest float64, times []int) (stat float64, df int) {
	trials := float64(len(times))
	minExp := max(5, trials/float64(len(chi2Crit)))
	obs := make([]float64, len(law)+1)
	for _, t := range times {
		obs[min(t, len(law))]++
	}
	exp := append(append([]float64(nil), law...), rest)
	var binsE, binsO []float64
	e, o := 0.0, 0.0
	for i := range exp {
		e += exp[i] * trials
		o += obs[i]
		if e >= minExp {
			binsE, binsO = append(binsE, e), append(binsO, o)
			e, o = 0, 0
		}
	}
	if len(binsE) == 0 {
		return 0, 0
	}
	binsE[len(binsE)-1] += e
	binsO[len(binsO)-1] += o
	for i := range binsE {
		d := binsO[i] - binsE[i]
		stat += d * d / binsE[i]
	}
	return stat, len(binsE) - 1
}

// oracleGraphs are the small graphs every sampler shape runs on:
// pow2-regular (cycle, complete), odd-regular (hypercube, circulant)
// and irregular (star, path, lollipop).
func oracleGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Cycle(8), graph.Complete(5), graph.Hypercube(3), graph.Star(7),
		graph.Path(6), graph.Lollipop(4, 3), graph.CirculantRegular(7, []int{1, 2, 3}),
	}
}

// checkLaw fails t when the simulated cover times do not follow the
// exact law at p < 1e-4.
func checkLaw(t *testing.T, name string, law []float64, rest float64, times []int) {
	t.Helper()
	stat, df := chiSquare(law, rest, times)
	if df < 1 {
		t.Fatalf("%s: cover-time law too concentrated to test", name)
	}
	if stat > chi2Crit[df-1] {
		t.Errorf("%s: chi-square %.1f on %d df exceeds the p = 1e-4 critical value %.2f", name, stat, df, chi2Crit[df-1])
	}
}

// TestCoverTimeMatchesExactLaw is the exact oracle: on graphs of at
// most 8 vertices a dynamic program gives the true law of the cover
// time from vertex 0, and every kernel path must draw from it. Each
// graph runs K = 1, 2, 3 pinned sparse (θ = -1), adaptive (θ = 0) and
// dense every round (θ = n), then a Bernoulli generalized walk and the
// SIS idealization with Beta = Gamma = 1.
func TestCoverTimeMatchesExactLaw(t *testing.T) {
	eps := 0.5 / oracleTrials
	salt := uint64(0)
	cover := func(run func(src *rng.Source) (int, bool)) []int {
		salt++
		times := make([]int, oracleTrials)
		src := rng.New(0)
		for i := range times {
			src.Seed(rng.Stream(salt, i))
			steps, ok := run(src)
			if !ok {
				t.Fatalf("trial %d exceeded the step cap", i)
			}
			times[i] = steps
		}
		return times
	}
	for _, g := range oracleGraphs() {
		n := g.N()
		for k := 1; k <= 3; k++ {
			law, rest := coverLaw(t, n, frontierLaws(n, drawLaw(g, k)), eps)
			for _, theta := range []int{-1, 0, n} {
				w := core.New(g, core.Config{K: k, DenseTheta: theta}, rng.New(0))
				times := cover(func(src *rng.Source) (int, bool) {
					w.SetRand(src)
					w.Reset(0)
					return w.RunUntilCovered()
				})
				checkLaw(t, fmt.Sprintf("%s K=%d θ=%d", g.Name(), k, theta), law, rest, times)
			}
		}

		one, three := drawLaw(g, 1), drawLaw(g, 3)
		for v := range one {
			for m := range one[v] {
				one[v][m] = (one[v][m] + three[v][m]) / 2
			}
		}
		law, rest := coverLaw(t, n, frontierLaws(n, one), eps)
		bern := core.BernoulliBranching(1, 3, 0.5)
		times := cover(func(src *rng.Source) (int, bool) {
			w := core.NewGeneral(g, bern, 0, src)
			w.Reset(0)
			return w.RunUntilCovered()
		})
		checkLaw(t, fmt.Sprintf("%s bernoulli(1,3,0.5)", g.Name()), law, rest, times)

		law, rest = coverLaw(t, n, frontierLaws(n, drawLaw(g, 2)), eps)
		times = cover(func(src *rng.Source) (int, bool) {
			p := epidemic.New(g, []int32{0}, epidemic.Config{K: 2, Beta: 1, Gamma: 1}, src)
			outcome, rounds := p.Run()
			return rounds, outcome == epidemic.FullExposure
		})
		checkLaw(t, fmt.Sprintf("%s SIS K=2", g.Name()), law, rest, times)
	}
}

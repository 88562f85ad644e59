// Package spectral estimates the spectral quantities the paper's bounds
// are stated in: the second eigenvalue of the random-walk operator, the
// spectral gap, and the graph conductance Φ_G (via Cheeger inequalities,
// sweep cuts, exact brute force for tiny graphs, and analytic formulas
// for the named families used in experiments).
package spectral

import (
	"math"

	"repro/internal/graph"
)

// Result bundles the spectral estimates of a graph.
type Result struct {
	Lambda2 float64 // second-largest eigenvalue of the normalized adjacency operator
	Gap     float64 // spectral gap 1 - Lambda2
	PhiLow  float64 // conductance lower bound (Cheeger: gap/2)
	PhiHigh float64 // conductance upper bound: min(sqrt(2*gap), best sweep cut)
}

// Analyze computes eigenvalue and conductance estimates for g. It is the
// one-call entry point used by cobractl graph and the experiments.
func Analyze(g *graph.Graph) Result {
	l2 := Lambda2(g, 1e-10, 10000)
	gap := 1 - l2
	if gap < 0 {
		gap = 0
	}
	res := Result{Lambda2: l2, Gap: gap, PhiLow: gap / 2}
	res.PhiHigh = math.Sqrt(2 * gap)
	if sweep, ok := SweepCutConductance(g); ok && sweep < res.PhiHigh {
		res.PhiHigh = sweep
	}
	if res.PhiHigh > 1 {
		res.PhiHigh = 1
	}
	return res
}

// normalizedMatVec computes y = N x where N = D^{-1/2} A D^{-1/2} is the
// normalized adjacency operator. invSqrtDeg caches 1/sqrt(d(v)).
func normalizedMatVec(g *graph.Graph, invSqrtDeg, x, y []float64) {
	for v := range y {
		y[v] = 0
	}
	for v := int32(0); v < int32(g.N()); v++ {
		xv := x[v] * invSqrtDeg[v]
		for _, u := range g.Neighbors(v) {
			y[u] += xv * invSqrtDeg[u]
		}
	}
}

// Lambda2 returns the second-largest eigenvalue of the normalized
// adjacency operator of g, computed by power iteration on the lazy
// operator (I+N)/2 with deflation against the known top eigenvector
// v1 ∝ sqrt(deg). The lazy transform maps the spectrum into [0, 1], so
// the iteration cannot lock onto a large negative eigenvalue (e.g. on
// bipartite graphs). tol is the Rayleigh-quotient convergence tolerance.
//
// For a connected graph, 1 - Lambda2 is the spectral gap; by Cheeger's
// inequality gap/2 <= Φ_G <= sqrt(2*gap). For a disconnected graph
// Lambda2 = 1.
func Lambda2(g *graph.Graph, tol float64, maxIter int) float64 {
	x := secondEigenvector(g, tol, maxIter)
	if x == nil {
		return 1 // degenerate: fewer than 2 vertices
	}
	n := g.N()
	invSqrtDeg := invSqrtDegrees(g)
	y := make([]float64, n)
	normalizedMatVec(g, invSqrtDeg, x, y)
	// Rayleigh quotient of N (not the lazy operator).
	num, den := 0.0, 0.0
	for i := range x {
		num += x[i] * y[i]
		den += x[i] * x[i]
	}
	if den == 0 {
		return 1
	}
	l2 := num / den
	if l2 > 1 {
		l2 = 1
	}
	return l2
}

// SecondEigenvector returns (a numerical approximation of) the eigenvector
// of the normalized adjacency operator associated with Lambda2, or nil
// for graphs with fewer than 2 vertices. It is exposed for sweep-cut
// computation and diagnostics.
func SecondEigenvector(g *graph.Graph, tol float64, maxIter int) []float64 {
	return secondEigenvector(g, tol, maxIter)
}

func invSqrtDegrees(g *graph.Graph) []float64 {
	inv := make([]float64, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		d := g.Degree(v)
		if d > 0 {
			inv[v] = 1 / math.Sqrt(float64(d))
		}
	}
	return inv
}

func secondEigenvector(g *graph.Graph, tol float64, maxIter int) []float64 {
	n := g.N()
	if n < 2 {
		return nil
	}
	invSqrtDeg := invSqrtDegrees(g)
	// Top eigenvector of N: v1[i] = sqrt(d_i), normalized.
	v1 := make([]float64, n)
	norm := 0.0
	for v := int32(0); v < int32(n); v++ {
		v1[v] = math.Sqrt(float64(g.Degree(v)))
		norm += v1[v] * v1[v]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return nil // edgeless graph
	}
	for i := range v1 {
		v1[i] /= norm
	}

	// Deterministic pseudo-random start vector, deflated against v1.
	x := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x[i] = float64(state%2048)/1024 - 1
	}
	deflate(x, v1)
	normalize(x)

	y := make([]float64, n)
	prev := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		// Lazy operator: y = (x + Nx)/2.
		normalizedMatVec(g, invSqrtDeg, x, y)
		for i := range y {
			y[i] = 0.5*x[i] + 0.5*y[i]
		}
		deflate(y, v1)
		mu := normalize(y)
		x, y = y, x
		if math.Abs(mu-prev) < tol {
			break
		}
		prev = mu
	}
	return x
}

func deflate(x, dir []float64) {
	dot := 0.0
	for i := range x {
		dot += x[i] * dir[i]
	}
	for i := range x {
		x[i] -= dot * dir[i]
	}
}

func normalize(x []float64) float64 {
	norm := 0.0
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= norm
	}
	return norm
}

// Conductance returns the conductance φ(S) = |∂S| / min(vol(S), vol(V\S))
// of the given vertex subset, following the paper's §2 definition (the
// min makes the value independent of which side is named). It panics if S
// is empty or the whole vertex set, or if the graph has no edges.
func Conductance(g *graph.Graph, set []int32) float64 {
	n := g.N()
	inSet := make([]bool, n)
	for _, v := range set {
		inSet[v] = true
	}
	var boundary, vol int64
	for _, v := range set {
		vol += int64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if !inSet[u] {
				boundary++
			}
		}
	}
	total := 2 * int64(g.M())
	if vol == 0 || vol == total {
		panic("spectral: Conductance of empty or full set")
	}
	volMin := vol
	if total-vol < volMin {
		volMin = total - vol
	}
	return float64(boundary) / float64(volMin)
}

// SweepCutConductance orders vertices by the second eigenvector
// (normalized by sqrt(deg)) and returns the best prefix-cut conductance.
// This is a genuine cut, so the returned value upper-bounds Φ_G. ok is
// false for graphs too small to cut.
func SweepCutConductance(g *graph.Graph) (phi float64, ok bool) {
	n := g.N()
	if n < 2 || g.M() == 0 {
		return 0, false
	}
	x := secondEigenvector(g, 1e-9, 5000)
	if x == nil {
		return 0, false
	}
	order := make([]int32, n)
	score := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		order[v] = v
		d := g.Degree(v)
		if d > 0 {
			score[v] = x[v] / math.Sqrt(float64(d))
		}
	}
	// Sort by score ascending (insertion into a slice then sort).
	sortByScore(order, score)

	inSet := make([]bool, n)
	var boundary, vol int64
	total := 2 * int64(g.M())
	best := math.Inf(1)
	for i := 0; i < n-1; i++ {
		v := order[i]
		inSet[v] = true
		vol += int64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if inSet[u] {
				boundary -= 1
			} else {
				boundary += 1
			}
		}
		volMin := vol
		if total-vol < volMin {
			volMin = total - vol
		}
		if volMin == 0 {
			continue
		}
		if phi := float64(boundary) / float64(volMin); phi < best {
			best = phi
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

func sortByScore(order []int32, score []float64) {
	// Simple bottom-up merge sort to avoid sort.Slice closure allocation
	// in this one call site; n is modest so clarity wins over tuning.
	n := len(order)
	buf := make([]int32, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if score[order[i]] <= score[order[j]] {
					buf[k] = order[i]
					i++
				} else {
					buf[k] = order[j]
					j++
				}
				k++
			}
			for i < mid {
				buf[k] = order[i]
				i++
				k++
			}
			for j < hi {
				buf[k] = order[j]
				j++
				k++
			}
			copy(order[lo:hi], buf[lo:hi])
		}
	}
}

// ExactConductance computes Φ_G by brute force over all 2^(n-1)-1 proper
// subsets containing vertex 0's complement trick. It panics for graphs
// with more than 24 vertices or without edges. Intended for validating
// the estimators on tiny graphs.
func ExactConductance(g *graph.Graph) float64 {
	n := g.N()
	if n > 24 {
		panic("spectral: ExactConductance limited to n <= 24")
	}
	if g.M() == 0 || n < 2 {
		panic("spectral: ExactConductance needs a non-trivial graph")
	}
	deg := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		deg[v] = int64(g.Degree(v))
	}
	total := 2 * int64(g.M())
	best := math.Inf(1)
	// Enumerate subsets not containing vertex n-1 (each {S, S̄} pair is
	// visited once since exactly one side omits vertex n-1).
	limit := 1 << uint(n-1)
	for mask := 1; mask < limit; mask++ {
		var vol, boundary int64
		for v := 0; v < n-1; v++ {
			if mask&(1<<uint(v)) == 0 {
				continue
			}
			vol += deg[v]
			for _, u := range g.Neighbors(int32(v)) {
				if int(u) == n-1 || mask&(1<<uint(u)) == 0 {
					boundary++
				}
			}
		}
		volMin := vol
		if total-vol < volMin {
			volMin = total - vol
		}
		if volMin == 0 {
			continue
		}
		if phi := float64(boundary) / float64(volMin); phi < best {
			best = phi
		}
	}
	return best
}

// MixingTime returns the number of lazy-random-walk steps needed from the
// worst starting vertex for the walk distribution to come within total
// variation distance eps of stationarity, computed by exact distribution
// iteration (O(steps * m) per start). maxSteps caps the search; the
// second return is false if the cap was hit. Intended for modest n.
func MixingTime(g *graph.Graph, eps float64, maxSteps int) (int, bool) {
	n := g.N()
	total := 2 * float64(g.M())
	pi := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		pi[v] = float64(g.Degree(v)) / total
	}
	worst := 0
	for start := int32(0); start < int32(n); start++ {
		p := make([]float64, n)
		q := make([]float64, n)
		p[start] = 1
		t := 0
		for ; t <= maxSteps; t++ {
			if tvDistance(p, pi) <= eps {
				break
			}
			// Lazy step: q = p/2 + P^T p / 2 with P the simple RW kernel.
			for i := range q {
				q[i] = 0.5 * p[i]
			}
			for v := int32(0); v < int32(n); v++ {
				if p[v] == 0 {
					continue
				}
				share := 0.5 * p[v] / float64(g.Degree(v))
				for _, u := range g.Neighbors(v) {
					q[u] += share
				}
			}
			p, q = q, p
		}
		if t > maxSteps {
			return maxSteps, false
		}
		if t > worst {
			worst = t
		}
	}
	return worst, true
}

func tvDistance(p, q []float64) float64 {
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2
}

// Analytic conductance values for named families, used to cross-check the
// estimators and to parameterize Theorem 8 experiments.

// CycleConductance returns Φ of the n-cycle: the optimal cut is a
// half-arc, giving 2 boundary edges over volume 2*floor(n/2).
func CycleConductance(n int) float64 {
	return 2.0 / float64(2*(n/2))
}

// HypercubeConductance returns Φ of the dim-dimensional hypercube, which
// is exactly 1/dim (achieved by a subcube half).
func HypercubeConductance(dim int) float64 {
	return 1.0 / float64(dim)
}

// CompleteConductance returns Φ of K_n: a half set of size floor(n/2)
// gives boundary k(n-k) over volume k(n-1) with k = floor(n/2).
func CompleteConductance(n int) float64 {
	k := n / 2
	return float64(k*(n-k)) / float64(k*(n-1))
}

// TorusConductance returns Φ of the 2-dimensional side×side torus: a
// half-wrap band of side*floor(side/2) vertices has boundary 2*side over
// volume 4*side*floor(side/2).
func TorusConductance(side int) float64 {
	k := side / 2
	return float64(2*side) / float64(4*side*k)
}

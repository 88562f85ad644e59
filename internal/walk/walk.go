// Package walk implements the random-walk processes the paper builds on
// and compares against: lazy random walks, parallel independent random
// walks, the biased walks of Section 5 (ε-biased walks of Azar et al.
// and the paper's inverse-degree-biased walks, with the Metropolis
// controller of Lemma 16), and the simple walk's exact hitting times and
// closed-form cover times. The simple random walk itself is the 1-cobra
// walk: core.New with K = 1 and DenseTheta = -1 steps it.
package walk

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Lazy is a lazy random walk: with probability half it stays put,
// otherwise it moves to a uniformly random neighbor. Lazy walks avoid
// periodicity and are the chains the spectral machinery of Section 4
// reasons about.
type Lazy struct {
	g     *graph.Graph
	rnd   *rng.Source
	pos   int32
	steps int
}

// NewLazy creates a lazy random walk at start.
func NewLazy(g *graph.Graph, start int32, rnd *rng.Source) *Lazy {
	if g.MinDegree() == 0 && g.N() > 1 {
		panic("walk: graph has an isolated vertex")
	}
	return &Lazy{g: g, rnd: rnd, pos: start}
}

// Pos returns the current vertex.
func (l *Lazy) Pos() int32 { return l.pos }

// Step executes one lazy step.
func (l *Lazy) Step() {
	if l.rnd.Bool() {
		d := l.g.Degree(l.pos)
		l.pos = l.g.Neighbor(l.pos, l.rnd.Int31n(d))
	}
	l.steps++
}

// HittingTime returns steps until target is reached; ok is false if
// maxSteps is exceeded.
func (l *Lazy) HittingTime(target int32, maxSteps int) (int, bool) {
	start := l.steps
	for l.pos != target {
		if l.steps-start >= maxSteps {
			return l.steps - start, false
		}
		l.Step()
	}
	return l.steps - start, true
}

// Parallel is a set of k independent simple random walks advanced in
// lockstep, the related-work baseline the paper contrasts cobra walks
// with (Alon et al., Elsässer-Sauerwald).
type Parallel struct {
	g       *graph.Graph
	rnd     *rng.Source
	pos     []int32
	visited *bitset.Set
	count   int
	steps   int
}

// NewParallel creates k walkers, all at start.
func NewParallel(g *graph.Graph, k int, start int32, rnd *rng.Source) *Parallel {
	if k < 1 {
		panic("walk: Parallel needs k >= 1")
	}
	if g.MinDegree() == 0 && g.N() > 1 {
		panic("walk: graph has an isolated vertex")
	}
	p := &Parallel{
		g:       g,
		rnd:     rnd,
		pos:     make([]int32, k),
		visited: bitset.New(g.N()),
	}
	for i := range p.pos {
		p.pos[i] = start
	}
	p.visited.Add(int(start))
	p.count = 1
	return p
}

// Steps returns the number of rounds taken.
func (p *Parallel) Steps() int { return p.steps }

// VisitedCount returns the number of distinct vertices visited by any
// walker.
func (p *Parallel) VisitedCount() int { return p.count }

// Step advances every walker one step.
func (p *Parallel) Step() {
	for i, v := range p.pos {
		d := p.g.Degree(v)
		u := p.g.Neighbor(v, p.rnd.Int31n(d))
		p.pos[i] = u
		if !p.visited.TestAndAdd(int(u)) {
			p.count++
		}
	}
	p.steps++
}

// CoverTime returns rounds until all vertices are visited; ok is false if
// maxSteps is exceeded.
func (p *Parallel) CoverTime(maxSteps int) (int, bool) {
	for p.count < p.g.N() {
		if p.steps >= maxSteps {
			return p.steps, false
		}
		p.Step()
	}
	return p.steps, true
}

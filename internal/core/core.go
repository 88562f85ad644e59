// Package core implements the paper's central object: the
// coalescing-branching random walk (cobra walk).
//
// A k-cobra walk starts with a pebble on a start vertex. In every round,
// each active vertex chooses k neighbors independently and uniformly at
// random with replacement; the chosen vertices form the next round's
// active set. Choosing the same vertex twice coalesces automatically
// because the active set is a set. The cover time is the expected number
// of rounds until every vertex has been active at least once.
//
// Walk is the package's one engine for that process. It also steps the
// generalized walk whose branching factor varies by vertex, round or
// chance (NewGeneral), and package epidemic runs its Beta = Gamma = 1 SIS
// idealization on it. The engine keeps the frontier both as a vertex
// list (for iteration) and a bitset (for deduplication), performs no
// allocation per round once its buffers have grown, and is deterministic
// given a seed, which makes trials reproducible and embarrassingly
// parallel.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes a cobra walk.
type Config struct {
	// K is the branching factor: the number of neighbors sampled by each
	// active vertex per round (with replacement). The paper studies
	// K = 2. K = 1 is the simple random walk, and with DenseTheta = -1
	// it draws the simple walk's own sequence, one Int31n(deg) per step;
	// every simple-walk measurement in this repository runs that way.
	K int
	// MaxSteps caps a run; runs exceeding it report ok = false. Zero
	// selects DefaultMaxSteps(n).
	MaxSteps int
	// DenseTheta is the kernel-switch density θ: a round runs the dense
	// word-parallel kernel when the active set is larger than N/θ, and
	// the sparse list kernel otherwise. Zero selects DefaultDenseTheta;
	// a negative value disables the dense kernel, which pins the walk to
	// the seed-stable sparse draw sequence (byte-identical results
	// across releases for a fixed seed); θ >= N forces the dense kernel
	// on every round. Dense rounds consume randomness in a different
	// order than sparse rounds, so runs that enter dense mode are
	// distribution-equivalent, not byte-identical, to sparse-only runs.
	DenseTheta int
}

// DefaultMaxSteps returns the safety cap used when Config.MaxSteps is
// zero: generous enough for every experiment in this repository (the
// paper's worst bound is O(n^{11/4} log n)).
func DefaultMaxSteps(n int) int {
	if n < 2 {
		return 1
	}
	steps := 200 * n * n
	if steps < 100000 {
		steps = 100000
	}
	return steps
}

// Walk is a running cobra walk on a fixed graph, with K samples per
// active vertex (New) or a branching function's (NewGeneral). It is not
// safe for concurrent use; parallel trials each construct their own
// Walk.
type Walk struct {
	g       *graph.Graph
	cfg     Config
	branch  BranchingFunc // per-vertex factors (NewGeneral); nil samples cfg.K
	rnd     *rng.Source
	blk     *rng.Block // buffered draws for the dense kernel, created lazily
	draws   []uint64   // whole-round draw scratch for the dense kernel
	draws32 []uint32   // pre-split half-draw scratch for the fused kernels (rng.Block.Fill32)

	denseCut int         // run the dense kernel when the frontier exceeds it
	active   []int32     // current frontier (unique vertices), unless activeIsBits
	next     []int32     // next frontier under construction
	nextSet  *bitset.Set // membership for next
	covered  *bitset.Set

	// Bitset-only frontier state: after a dense round the frontier lives
	// in activeSet with population nActive and the active list stays
	// empty until a sparse round or an accessor materializes it.
	activeSet    *bitset.Set
	activeIsBits bool
	nActive      int
	mark         []byte // dense-round membership marks, all-zero between rounds

	nCovered int
	steps    int
	messages int64 // neighbor samples drawn (protocol message cost)
}

// New constructs a Walk on g. It panics if g has an isolated vertex
// (pebbles would have no move) or if cfg.K < 1. The walk is initially
// empty; call Reset or ResetSet before stepping.
func New(g *graph.Graph, cfg Config, rnd *rng.Source) *Walk {
	if cfg.K < 1 {
		panic("core: cobra walk needs K >= 1")
	}
	if g.N() == 0 {
		panic("core: empty graph")
	}
	if g.MinDegree() == 0 && g.N() > 1 {
		panic("core: graph has an isolated vertex")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps(g.N())
	}
	w := &Walk{
		g:        g,
		cfg:      cfg,
		rnd:      rnd,
		denseCut: DenseCutoff(g.N(), cfg.DenseTheta),
		active:   make([]int32, 0, g.N()),
		next:     make([]int32, 0, g.N()),
		nextSet:  bitset.New(g.N()),
		covered:  bitset.New(g.N()),
	}
	if w.denseCut < g.N() {
		// Dense rounds are reachable: the frontier bitset is packed from
		// the mark array every dense round.
		w.activeSet = bitset.New(g.N())
	}
	return w
}

// SetRand rebinds the walk to a new random source, discarding any
// buffered draws. Pooled trial runners call it before Reset so one Walk
// can serve many deterministic per-trial streams.
func (w *Walk) SetRand(rnd *rng.Source) {
	w.rnd = rnd
	if w.blk != nil {
		w.blk.Reset(rnd)
	}
}

// Reset restarts the walk with a single pebble at start.
func (w *Walk) Reset(start int32) {
	w.ResetSet([]int32{start})
}

// ResetSet restarts the walk with pebbles at every vertex of starts
// (duplicates are coalesced). It panics if starts is empty.
func (w *Walk) ResetSet(starts []int32) {
	if len(starts) == 0 {
		panic("core: empty start set")
	}
	w.active = w.active[:0]
	w.next = w.next[:0]
	w.nextSet.Clear()
	w.activeIsBits = false
	w.nActive = 0
	w.covered.Clear()
	w.nCovered = 0
	w.steps = 0
	w.messages = 0
	if w.blk != nil {
		w.blk.Reset(w.rnd)
	}
	for _, v := range starts {
		if !w.covered.TestAndAdd(int(v)) {
			w.nCovered++
			w.active = append(w.active, v)
		}
	}
}

// Steps returns the number of rounds executed since the last reset.
func (w *Walk) Steps() int { return w.steps }

// CoveredCount returns the number of distinct vertices covered so far.
func (w *Walk) CoveredCount() int { return w.nCovered }

// Covered reports whether v has been active at any time since reset.
func (w *Walk) Covered(v int32) bool { return w.covered.Contains(int(v)) }

// ActiveCount returns the current number of active vertices.
func (w *Walk) ActiveCount() int { return w.frontierSize() }

// frontierSize returns the current frontier population regardless of
// which representation (list or bitset) currently holds it.
func (w *Walk) frontierSize() int {
	if w.activeIsBits {
		return w.nActive
	}
	return len(w.active)
}

// MaxSteps returns the effective per-run round cap (the configured value,
// or DefaultMaxSteps when the config left it zero).
func (w *Walk) MaxSteps() int { return w.cfg.MaxSteps }

// AppendActive appends the current active vertices to dst and returns the
// extended slice. While the frontier is bitset-resident (after a dense
// round) it is decoded in ascending vertex order.
func (w *Walk) AppendActive(dst []int32) []int32 {
	if w.activeIsBits {
		return w.activeSet.AppendTo(dst)
	}
	return append(dst, w.active...)
}

// MessagesSent returns the cumulative number of neighbor samples drawn
// since the last reset — the message cost of the walk viewed as a
// dissemination protocol (K messages per active vertex per round).
func (w *Walk) MessagesSent() int64 { return w.messages }

// Step executes one cobra round: every active vertex samples K random
// neighbors (or its branching factor's worth, under NewGeneral) with
// replacement; the sampled vertices form the new active set. Rounds
// whose frontier exceeds N/θ run the dense word-parallel kernel (see
// kernel.go); smaller rounds run the sparse list kernel, whose draw
// sequence is byte-stable for a fixed seed.
func (w *Walk) Step() {
	size := w.frontierSize()
	if size > w.denseCut {
		w.stepDense(size)
		return
	}
	if w.activeIsBits {
		// Dense-to-sparse transition: materialize the list in ascending
		// vertex order.
		w.active = w.activeSet.AppendTo(w.active[:0])
		w.activeIsBits = false
	}
	// The sparse list kernel has no data-dependent branch per sample:
	// each sample is stored at next[n], then n and the covered count
	// advance by the bits that say it was new to nextSet and to covered
	// (a sample already in nextSet is already covered, so it adds 0 to
	// both). It draws one Int31n per sample in frontier order and keeps
	// first-seen order, so the draw sequence and the frontier are the
	// seed implementation's.
	offs, adj, rnd := w.g.Offsets(), w.g.Adj(), w.rnd
	seen, cov := w.nextSet.Words(), w.covered.Words()
	k, n, covered := w.cfg.K, 0, w.nCovered
	next := slices.Grow(w.next[:0], k*len(w.active))
	next = next[:cap(next)]
	for _, v := range w.active {
		if w.branch != nil {
			k = w.factor(v)
			if len(next)-n < k {
				next = slices.Grow(next[:n], k)
				next = next[:cap(next)]
			}
		}
		w.messages += int64(k)
		base := offs[v]
		deg := offs[v+1] - base
		for j := 0; j < k; j++ {
			u := adj[base+rnd.Int31n(deg)]
			i, bit := u>>6, uint(u&63)
			s, c := seen[i], cov[i]
			seen[i], cov[i] = s|1<<bit, c|1<<bit
			next[n] = u
			n += int(^s >> bit & 1)
			covered += int(^c >> bit & 1)
		}
	}
	// nextSet holds exactly the new frontier, so zeroing the word of
	// each of its vertices empties it in O(|frontier|), not O(n).
	for _, u := range next[:n] {
		seen[u>>6] = 0
	}
	w.nCovered = covered
	w.active, w.next = next[:n], w.active[:0]
	w.steps++
}

// factor returns v's branching factor this round: the walk's branching
// function's value, which must be at least 1.
func (w *Walk) factor(v int32) int {
	k := w.branch(v, w.steps, w.rnd)
	if k < 1 {
		panic("core: branching function returned < 1")
	}
	return k
}

// RunUntilCovered steps until all n vertices are covered, returning the
// number of rounds. ok is false if MaxSteps was exceeded.
func (w *Walk) RunUntilCovered() (steps int, ok bool) {
	n := w.g.N()
	for w.nCovered < n {
		if w.steps >= w.cfg.MaxSteps {
			return w.steps, false
		}
		w.Step()
	}
	return w.steps, true
}

// RunUntilHit steps until target is covered, returning the number of
// rounds (0 if the start set already contains target). ok is false if
// MaxSteps was exceeded.
func (w *Walk) RunUntilHit(target int32) (steps int, ok bool) {
	for !w.covered.Contains(int(target)) {
		if w.steps >= w.cfg.MaxSteps {
			return w.steps, false
		}
		w.Step()
	}
	return w.steps, true
}

// RunUntilCoveredFraction steps until at least frac of all vertices are
// covered. ok is false if MaxSteps was exceeded.
func (w *Walk) RunUntilCoveredFraction(frac float64) (steps int, ok bool) {
	want := int(frac * float64(w.g.N()))
	if want < 1 {
		want = 1
	}
	for w.nCovered < want {
		if w.steps >= w.cfg.MaxSteps {
			return w.steps, false
		}
		w.Step()
	}
	return w.steps, true
}

// CoverTime runs a fresh k-cobra walk from start and returns the number
// of rounds to cover g. ok is false if the cap was exceeded.
func CoverTime(g *graph.Graph, k int, start int32, seed uint64) (steps int, ok bool) {
	w := New(g, Config{K: k}, rng.New(seed))
	w.Reset(start)
	return w.RunUntilCovered()
}

// HittingTime runs a fresh k-cobra walk from start and returns the number
// of rounds until target becomes active. ok is false if the cap was
// exceeded.
func HittingTime(g *graph.Graph, k int, start, target int32, seed uint64) (steps int, ok bool) {
	w := New(g, Config{K: k}, rng.New(seed))
	w.Reset(start)
	return w.RunUntilHit(target)
}

// Trials returns a pooled trial worker (see sim.RunTrialsPooled) that
// measures cover or hitting rounds. Each worker goroutine builds one
// Walk and rebinds it to each trial's stream, so trial i measures a
// fresh walk on stream i. A trial starts with pebbles on starts and
// counts rounds until target is first active, or until every vertex is
// covered when target is negative; a trial that reaches the step cap
// fails the run.
func Trials(g *graph.Graph, cfg Config, starts []int32, target int32) sim.WorkerFunc {
	return func() sim.TrialFunc {
		w := New(g, cfg, rng.New(0))
		return func(_ int, src *rng.Source) (float64, error) {
			w.SetRand(src)
			w.ResetSet(starts)
			var steps int
			var ok bool
			if target < 0 {
				steps, ok = w.RunUntilCovered()
			} else {
				steps, ok = w.RunUntilHit(target)
			}
			if !ok {
				return 0, fmt.Errorf("core: step cap %d exceeded on %s", w.cfg.MaxSteps, g)
			}
			return float64(steps), nil
		}
	}
}

// MeanCoverTime estimates the expected cover time from start by averaging
// trials independent runs (trial i uses stream i of seed). It returns the
// sample of cover times for downstream statistics. An error is returned
// if any trial exceeds the step cap.
func MeanCoverTime(g *graph.Graph, k int, start int32, trials int, seed uint64) ([]float64, error) {
	return sim.RunTrialsPooled(trials, seed, Trials(g, Config{K: k}, []int32{start}, -1))
}

// MaxHittingTime estimates h_max = max_{u,v} H(u, v) by measuring mean
// hitting times over the given pairs with trials runs each, returning the
// largest mean. Trial i of pair p uses stream p*trials+i of seed. Used by
// the Matthews-relation experiment (Theorem 1).
func MaxHittingTime(g *graph.Graph, k int, pairs [][2]int32, trials int, seed uint64) (float64, error) {
	if len(pairs) == 0 || trials < 1 {
		return 0, fmt.Errorf("core: need pairs and trials")
	}
	sample, err := sim.RunTrialsPooled(len(pairs)*trials, seed, func() sim.TrialFunc {
		perPair := make([]sim.TrialFunc, len(pairs))
		for i, p := range pairs {
			perPair[i] = Trials(g, Config{K: k}, []int32{p[0]}, p[1])()
		}
		return func(trial int, src *rng.Source) (float64, error) {
			return perPair[trial/trials](trial, src)
		}
	})
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i := range pairs {
		if mean := stats.Mean(sample[i*trials : (i+1)*trials]); mean > worst {
			worst = mean
		}
	}
	return worst, nil
}

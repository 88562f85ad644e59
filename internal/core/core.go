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
)

// Config parameterizes a cobra walk.
type Config struct {
	// K is the branching factor: the number of neighbors sampled by each
	// active vertex per round (with replacement). K = 1 reduces to the
	// simple random walk; the paper studies K = 2.
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

	nCovered  int
	steps     int
	messages  int64 // neighbor samples drawn (protocol message cost)
	activeLog []int // per-round active set sizes, if recording
	recording bool
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
	w.activeLog = w.activeLog[:0]
	if w.blk != nil {
		w.blk.Reset(w.rnd)
	}
	for _, v := range starts {
		if !w.covered.TestAndAdd(int(v)) {
			w.nCovered++
			w.active = append(w.active, v)
		}
	}
	if w.recording {
		w.activeLog = append(w.activeLog, len(w.active))
	}
}

// SetRecording enables per-round active-set-size logging (E12 trajectory
// experiments). Must be called before Reset to capture round 0.
func (w *Walk) SetRecording(on bool) { w.recording = on }

// ActiveLog returns the recorded active-set sizes (round 0 first). The
// slice aliases internal storage.
func (w *Walk) ActiveLog() []int { return w.activeLog }

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
	if w.recording {
		w.activeLog = append(w.activeLog, len(w.active))
	}
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

// MeanCoverTime estimates the expected cover time from start by averaging
// trials independent runs (trial i uses stream i of seed). It returns the
// sample of cover times for downstream statistics. An error is returned
// if any trial exceeds the step cap.
func MeanCoverTime(g *graph.Graph, k int, start int32, trials int, seed uint64) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("core: trials must be >= 1")
	}
	// One Walk and one Source serve every trial: reseeding plus Reset
	// reproduces the exact per-trial streams of freshly allocated state
	// without the O(n) allocations per trial.
	out := make([]float64, trials)
	w := New(g, Config{K: k}, rng.New(0))
	for i := 0; i < trials; i++ {
		w.rnd.Seed(rng.Stream(seed, i))
		w.Reset(start)
		steps, ok := w.RunUntilCovered()
		if !ok {
			return nil, fmt.Errorf("core: trial %d exceeded step cap %d on %s", i, w.cfg.MaxSteps, g)
		}
		out[i] = float64(steps)
	}
	return out, nil
}

// MaxHittingTime estimates h_max = max_{u,v} H(u, v) by measuring mean
// hitting times over the given pairs with trials runs each, returning the
// largest mean. Used by the Matthews-relation experiment (Theorem 1).
func MaxHittingTime(g *graph.Graph, k int, pairs [][2]int32, trials int, seed uint64) (float64, error) {
	if len(pairs) == 0 || trials < 1 {
		return 0, fmt.Errorf("core: need pairs and trials")
	}
	worst := 0.0
	w := New(g, Config{K: k}, rng.New(0))
	for pi, p := range pairs {
		sum := 0.0
		for i := 0; i < trials; i++ {
			w.rnd.Seed(rng.Stream(seed, pi*trials+i))
			w.Reset(p[0])
			steps, ok := w.RunUntilHit(p[1])
			if !ok {
				return 0, fmt.Errorf("core: hitting pair %v exceeded step cap", p)
			}
			sum += float64(steps)
		}
		if mean := sum / float64(trials); mean > worst {
			worst = mean
		}
	}
	return worst, nil
}

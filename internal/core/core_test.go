package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestCoverCompleteGraphFast(t *testing.T) {
	// On K_n a 2-cobra walk roughly doubles its active set per round until
	// saturation; cover time is O(log n) + coupon-collector tail.
	g := graph.Complete(64)
	steps, ok := CoverTime(g, 2, 0, 1)
	if !ok {
		t.Fatal("cover did not finish")
	}
	if steps > 200 {
		t.Fatalf("K64 cover took %d rounds, expected fast coverage", steps)
	}
}

func TestCoverPathK1IsRandomWalk(t *testing.T) {
	// K=1 cobra walk is exactly a simple random walk; cover time of a
	// path of n vertices is Θ(n²). Just verify it terminates and exceeds
	// the linear bound to distinguish it from K=2 behavior.
	g := graph.Path(20)
	sample, err := MeanCoverTime(g, 1, 0, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(sample)
	if mean < float64(g.N()) {
		t.Fatalf("K=1 path cover mean %.1f below n; impossible", mean)
	}
}

func TestCoverPathK2FasterThanK1(t *testing.T) {
	g := graph.Path(40)
	k1, err := MeanCoverTime(g, 1, 0, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := MeanCoverTime(g, 2, 0, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(k2) >= stats.Mean(k1) {
		t.Fatalf("2-cobra (%.1f) not faster than random walk (%.1f) on path",
			stats.Mean(k2), stats.Mean(k1))
	}
}

func TestCoverNeverExceedsVisitedBound(t *testing.T) {
	// After the run, every vertex must be covered.
	g := graph.Cycle(30)
	w := New(g, Config{K: 2}, rng.New(5))
	w.Reset(0)
	if _, ok := w.RunUntilCovered(); !ok {
		t.Fatal("cover did not finish")
	}
	if w.CoveredCount() != g.N() {
		t.Fatalf("covered %d of %d", w.CoveredCount(), g.N())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if !w.Covered(v) {
			t.Fatalf("vertex %d not covered", v)
		}
	}
}

func TestHittingTimeZeroAtStart(t *testing.T) {
	g := graph.Cycle(10)
	steps, ok := HittingTime(g, 2, 3, 3, 1)
	if !ok || steps != 0 {
		t.Fatalf("hitting own start = %d, ok=%v", steps, ok)
	}
}

func TestHittingBeforeCover(t *testing.T) {
	g := graph.Path(30)
	for seed := uint64(0); seed < 5; seed++ {
		w := New(g, Config{K: 2}, rng.NewStream(9, int(seed)))
		w.Reset(0)
		hit, ok := w.RunUntilHit(15)
		if !ok {
			t.Fatal("hit did not finish")
		}
		w2 := New(g, Config{K: 2}, rng.NewStream(9, int(seed)))
		w2.Reset(0)
		cov, ok := w2.RunUntilCovered()
		if !ok {
			t.Fatal("cover did not finish")
		}
		if hit > cov {
			t.Fatalf("hitting time %d exceeds cover time %d with same seed", hit, cov)
		}
	}
}

func TestActiveSetNeverEmpty(t *testing.T) {
	g := graph.Star(20)
	w := New(g, Config{K: 2}, rng.New(2))
	w.Reset(0)
	for i := 0; i < 200; i++ {
		w.Step()
		if w.ActiveCount() == 0 {
			t.Fatal("active set became empty")
		}
	}
}

func TestActiveSetBoundedByBranching(t *testing.T) {
	// |S_{t+1}| <= K * |S_t| always.
	g := graph.MustRandomRegular(100, 4, 3)
	w := New(g, Config{K: 2}, rng.New(11))
	w.Reset(0)
	prev := w.ActiveCount()
	for i := 0; i < 100; i++ {
		w.Step()
		cur := w.ActiveCount()
		if cur > 2*prev {
			t.Fatalf("active set grew from %d to %d > 2x", prev, cur)
		}
		prev = cur
	}
}

func TestStarAlternation(t *testing.T) {
	// On a star started at the hub, the active set alternates between
	// leaves and {hub}: after an odd number of rounds only leaves are
	// active; after an even number, only the hub.
	g := graph.Star(10)
	w := New(g, Config{K: 2}, rng.New(4))
	w.Reset(0)
	w.Step()
	var buf []int32
	for _, v := range w.AppendActive(buf) {
		if v == 0 {
			t.Fatal("hub active after odd round")
		}
	}
	w.Step()
	buf = w.AppendActive(buf[:0])
	if len(buf) != 1 || buf[0] != 0 {
		t.Fatalf("after even round active = %v, want {0}", buf)
	}
}

func TestResetSetCoalescesDuplicates(t *testing.T) {
	g := graph.Cycle(10)
	w := New(g, Config{K: 2}, rng.New(1))
	w.ResetSet([]int32{3, 3, 3, 7})
	if w.ActiveCount() != 2 {
		t.Fatalf("active after duplicate reset = %d, want 2", w.ActiveCount())
	}
	if w.CoveredCount() != 2 {
		t.Fatalf("covered after duplicate reset = %d, want 2", w.CoveredCount())
	}
}

func TestMessagesSentAccounting(t *testing.T) {
	g := graph.Complete(16)
	w := New(g, Config{K: 3}, rng.New(4))
	w.Reset(0)
	if w.MessagesSent() != 0 {
		t.Fatal("fresh walk has messages")
	}
	w.Step() // 1 active vertex × K=3
	if w.MessagesSent() != 3 {
		t.Fatalf("messages after one round = %d, want 3", w.MessagesSent())
	}
	var total int64 = 3
	for i := 0; i < 10; i++ {
		active := int64(w.ActiveCount())
		w.Step()
		total += 3 * active
		if w.MessagesSent() != total {
			t.Fatalf("message count %d, want %d", w.MessagesSent(), total)
		}
	}
	w.Reset(0)
	if w.MessagesSent() != 0 {
		t.Fatal("reset did not clear messages")
	}
}

func TestMaxStepsEnforced(t *testing.T) {
	g := graph.Cycle(100)
	w := New(g, Config{K: 1, MaxSteps: 5}, rng.New(1))
	w.Reset(0)
	steps, ok := w.RunUntilCovered()
	if ok {
		t.Fatal("cover of C100 in 5 steps is impossible")
	}
	if steps != 5 {
		t.Fatalf("stopped at %d steps, want 5", steps)
	}
}

func TestRunUntilCoveredFraction(t *testing.T) {
	g := graph.Complete(100)
	w := New(g, Config{K: 2}, rng.New(8))
	w.Reset(0)
	steps, ok := w.RunUntilCoveredFraction(0.5)
	if !ok {
		t.Fatal("fraction run failed")
	}
	if w.CoveredCount() < 50 {
		t.Fatalf("covered %d < 50", w.CoveredCount())
	}
	if steps > 100 {
		t.Fatalf("half-covering K100 took %d rounds", steps)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.Grid(2, 8)
	a, okA := CoverTime(g, 2, 0, 12345)
	b, okB := CoverTime(g, 2, 0, 12345)
	if okA != okB || a != b {
		t.Fatalf("same seed gave different cover times: %d vs %d", a, b)
	}
}

func TestMeanCoverTimeTrialsIndependent(t *testing.T) {
	g := graph.Cycle(16)
	sample, err := MeanCoverTime(g, 2, 0, 30, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Not all trials should be identical (non-degenerate randomness).
	allSame := true
	for _, v := range sample[1:] {
		if v != sample[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("all trials produced identical cover times; streams broken?")
	}
}

func TestMaxHittingTime(t *testing.T) {
	g := graph.Path(12)
	pairs := [][2]int32{{0, 11}, {11, 0}, {5, 6}}
	hmax, err := MaxHittingTime(g, 2, pairs, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The end-to-end pair must dominate the adjacent pair.
	short, err := MaxHittingTime(g, 2, [][2]int32{{5, 6}}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hmax < short {
		t.Fatalf("hmax %v below a component mean %v", hmax, short)
	}
	if hmax < float64(11) {
		t.Fatalf("end-to-end hitting mean %v below distance 11", hmax)
	}
}

func TestNewValidations(t *testing.T) {
	g := graph.Cycle(5)
	for name, fn := range map[string]func(){
		"K0": func() { New(g, Config{K: 0}, rng.New(1)) },
		"isolated": func() {
			b := graph.NewBuilder(3, "iso")
			b.AddEdge(0, 1)
			New(b.MustBuild(), Config{K: 2}, rng.New(1))
		},
		"emptyStart": func() {
			w := New(g, Config{K: 2}, rng.New(1))
			w.ResetSet(nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGridTrackerReachesTarget(t *testing.T) {
	// The tracked pebble chain has negative drift, so it reaches the
	// target in roughly linear time.
	side := 16
	tr := NewGridTracker(2, side, []int{0, 0}, []int{15, 15}, rng.New(5))
	steps, ok := tr.RunToTarget(100000)
	if !ok {
		t.Fatal("tracker did not reach target")
	}
	if steps < 30 {
		t.Fatalf("tracker reached distance-30 target in %d steps", steps)
	}
}

func TestGridTrackerLemma4MoveProbability(t *testing.T) {
	// Lemma 4: when z_i != 0, dimension i moves with probability at least
	// 1/(2d-1) per round. Measure on d=2 away from boundary.
	d := 2
	tr := NewGridTracker(d, 1000, []int{500, 500}, []int{100, 100}, rng.New(42))
	moved, rounds := 0, 0
	for i := 0; i < 20000; i++ {
		if tr.Z(0) == 0 {
			break
		}
		dim, _ := tr.Step()
		rounds++
		if dim == 0 {
			moved++
		}
	}
	frac := float64(moved) / float64(rounds)
	bound := 1.0 / float64(2*d-1)
	if frac < bound-0.02 {
		t.Fatalf("dimension-0 move fraction %.4f below Lemma 4 bound %.4f", frac, bound)
	}
}

func TestGridTrackerLemma4DecreaseBias(t *testing.T) {
	// Lemma 4: conditioned on dimension i moving (z_i != 0), it decreases
	// with probability at least 1/2 + 1/(8d-4).
	d := 2
	rnd := rng.New(77)
	decrease, moves := 0, 0
	// Restart the tracker whenever it gets close to target or boundary so
	// the interior-drift regime is measured.
	for trial := 0; trial < 200; trial++ {
		tr := NewGridTracker(d, 2000, []int{1000, 1000}, []int{500, 500}, rnd)
		for i := 0; i < 200; i++ {
			if tr.Z(0) < 5 || tr.Z(1) < 5 {
				break
			}
			_, delta := tr.Step()
			moves++
			if delta < 0 {
				decrease++
			}
		}
	}
	frac := float64(decrease) / float64(moves)
	bound := 0.5 + 1.0/float64(8*d-4)
	if frac < bound-0.02 {
		t.Fatalf("decrease fraction %.4f below Lemma 4 bound %.4f", frac, bound)
	}
}

func TestGridTrackerValidations(t *testing.T) {
	for name, fn := range map[string]func(){
		"badDim":   func() { NewGridTracker(0, 5, nil, nil, rng.New(1)) },
		"lenStart": func() { NewGridTracker(2, 5, []int{1}, []int{1, 1}, rng.New(1)) },
		"coordOOB": func() { NewGridTracker(2, 5, []int{9, 0}, []int{1, 1}, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMinActiveDistance(t *testing.T) {
	g := graph.Path(10)
	dist := graph.BFS(g, 9)
	w := New(g, Config{K: 2}, rng.New(3))
	w.Reset(0)
	if got := MinActiveDistance(w, dist); got != 9 {
		t.Fatalf("initial min distance = %d, want 9", got)
	}
	w.RunUntilHit(9)
	if got := MinActiveDistance(w, dist); got != 0 {
		t.Fatalf("min distance after hit = %d, want 0", got)
	}
}

func TestGridCoverTimeWrapper(t *testing.T) {
	steps, ok := GridCoverTime(2, 6, 2, 9)
	if !ok || steps < 1 {
		t.Fatalf("GridCoverTime = %d, ok=%v", steps, ok)
	}
}

func TestCoverScalesRoughlyLinearOnGrid(t *testing.T) {
	// Weak form of Theorem 3 at test scale: doubling the side of a 2D
	// grid should grow cover time far less than the ~4x a diffusive
	// process would give. Allow generous slack: ratio < 3.5.
	small, err := MeanCoverTime(graph.Grid(2, 12), 2, 0, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MeanCoverTime(graph.Grid(2, 24), 2, 0, 10, 22)
	if err != nil {
		t.Fatal(err)
	}
	ratio := stats.Mean(large) / stats.Mean(small)
	if ratio > 3.5 {
		t.Fatalf("grid cover ratio %.2f suggests superlinear scaling", ratio)
	}
	if math.IsNaN(ratio) || ratio < 1 {
		t.Fatalf("grid cover ratio %.2f nonsensical", ratio)
	}
}

func BenchmarkStepExpander(b *testing.B) {
	g := graph.MustRandomRegular(10000, 5, 1)
	w := New(g, Config{K: 2}, rng.New(1))
	w.Reset(0)
	// Grow to steady state before timing.
	for i := 0; i < 50; i++ {
		w.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

func BenchmarkCoverGrid32(b *testing.B) {
	g := graph.Grid(2, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := New(g, Config{K: 2}, rng.NewStream(1, i))
		w.Reset(0)
		if _, ok := w.RunUntilCovered(); !ok {
			b.Fatal("cover failed")
		}
	}
}

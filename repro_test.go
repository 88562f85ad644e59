package repro

import (
	"bytes"
	"strings"
	"testing"
)

// These integration tests exercise the public facade end to end — the
// same calls the examples and downstream users make.

func TestQuickstartFlow(t *testing.T) {
	g := Grid(2, 9) // the paper's [0,8]²
	if g.N() != 81 {
		t.Fatalf("grid n=%d", g.N())
	}
	steps, ok := CoverTime(g, 2, 0, 42)
	if !ok {
		t.Fatal("cover did not finish")
	}
	if steps < 8 {
		t.Fatalf("covered a diameter-16 grid in %d rounds", steps)
	}
}

func TestGraphFamiliesConstruct(t *testing.T) {
	families := map[string]*Graph{
		"grid":      Grid(2, 5),
		"torus":     Torus(2, 5),
		"cycle":     Cycle(10),
		"path":      Path(10),
		"complete":  Complete(6),
		"star":      Star(8),
		"wheel":     Wheel(8),
		"lollipop":  Lollipop(5, 5),
		"barbell":   Barbell(4, 2),
		"kary":      KAryTree(2, 3),
		"hypercube": Hypercube(4),
		"margulis":  Margulis(5),
		"circulant": CirculantRegular(12, []int{1, 2}),
	}
	for name, g := range families {
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		if !IsConnected(g) {
			t.Fatalf("%s: disconnected", name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRandomFamiliesConstruct(t *testing.T) {
	rr, err := RandomRegular(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reg, d := rr.IsRegular(); !reg || d != 4 {
		t.Fatal("not 4-regular")
	}
	if g := ErdosRenyi(100, 0.08, true, 2); !IsConnected(g) {
		t.Fatal("ER not connected")
	}
	if g := PowerLaw(200, 2.5, 2, 20, 3); !IsConnected(g) {
		t.Fatal("power law not connected")
	}
	if g := RandomGeometric(200, 0.15, true, 4); !IsConnected(g) {
		t.Fatal("rgg not connected")
	}
}

func TestCobraWalkAPI(t *testing.T) {
	g := Cycle(32)
	w := NewCobraWalk(g, CobraConfig{K: 2}, NewRand(7))
	w.Reset(0)
	w.Step()
	if w.Steps() != 1 {
		t.Fatal("step count wrong")
	}
	if w.ActiveCount() < 1 || w.ActiveCount() > 2 {
		t.Fatalf("active count %d after one round", w.ActiveCount())
	}
	steps, ok := w.RunUntilCovered()
	if !ok || steps < 16 {
		t.Fatalf("cycle cover steps=%d ok=%v", steps, ok)
	}
}

func TestHittingAndMeanCover(t *testing.T) {
	g := Path(20)
	hit, ok := HittingTime(g, 2, 0, 19, 5)
	if !ok || hit < 19 {
		t.Fatalf("hit=%d ok=%v", hit, ok)
	}
	sample, err := MeanCoverTime(g, 2, 0, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 10 {
		t.Fatal("trial count wrong")
	}
}

func TestWaltAPI(t *testing.T) {
	g := Torus(2, 5)
	p := NewWaltAtVertex(g, 6, 0, WaltConfig{Lazy: true}, NewRand(3))
	steps, ok := p.CoverTime()
	if !ok || steps < 1 {
		t.Fatalf("walt cover steps=%d ok=%v", steps, ok)
	}
	p2 := NewWalt(g, []int32{0, 1, 2}, WaltConfig{}, NewRand(4))
	if p2.Pebbles() != 3 {
		t.Fatal("pebble count wrong")
	}
}

func TestJointWalkAndTensorAPI(t *testing.T) {
	g := Cycle(8)
	j := NewJointWalk(g, 0, 4, true, NewRand(5))
	for i := 0; i < 50; i++ {
		j.Step()
	}
	dg, err := BuildTensorDigraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if !dg.IsEulerian() {
		t.Fatal("tensor digraph not Eulerian")
	}
}

func TestDriftChainAPI(t *testing.T) {
	c := NewDriftChain([]int{10, 10}, NewRand(6))
	steps, ok := c.TimeToEmpty(10000000)
	if !ok || steps < 20 {
		t.Fatalf("drift chain empty steps=%d ok=%v", steps, ok)
	}
}

func TestBaselineWalksAPI(t *testing.T) {
	g := Complete(16)
	s := NewCobraWalk(g, CobraConfig{K: 1, DenseTheta: -1, MaxSteps: 100000}, NewRand(7))
	s.Reset(0)
	if steps, ok := s.RunUntilCovered(); !ok || steps < 15 {
		t.Fatalf("simple cover steps=%d ok=%v", steps, ok)
	}
	l := NewLazyWalk(g, 0, NewRand(8))
	if steps, ok := l.HittingTime(5, 100000); !ok || steps < 1 {
		t.Fatalf("lazy hit steps=%d ok=%v", steps, ok)
	}
	p := NewParallelWalks(g, 4, 0, NewRand(9))
	if steps, ok := p.CoverTime(100000); !ok || steps < 1 {
		t.Fatalf("parallel cover steps=%d ok=%v", steps, ok)
	}
}

func TestBiasedWalkAPI(t *testing.T) {
	g := Cycle(24)
	ctrl := NewGreedyController(g, 12)
	b := NewEpsilonBiasedWalk(g, 0.5, ctrl, 0, NewRand(10))
	if steps, ok := b.HittingTime(12, 1000000); !ok || steps < 12 {
		t.Fatalf("biased hit steps=%d ok=%v", steps, ok)
	}
	ib := NewInverseDegreeBiasedWalk(g, 12, ctrl, 0, NewRand(11))
	if steps, ok := ib.HittingTime(12, 10000000); !ok || steps < 12 {
		t.Fatalf("inverse-degree hit steps=%d ok=%v", steps, ok)
	}
	bound := InverseDegreeStationaryBound(g, 0)
	if bound <= 0 || bound >= 1 {
		t.Fatalf("stationary bound %v out of range", bound)
	}
	if eb := EpsilonBiasBound(g, []int32{0}, 0.3); eb <= 0 || eb >= 1 {
		t.Fatalf("epsilon bound %v out of range", eb)
	}
	chain := InverseDegreeMetropolis(g, 0)
	if !chain.Validate(1e-9) {
		t.Fatal("metropolis chain invalid")
	}
}

func TestGossipAPI(t *testing.T) {
	g := Complete(32)
	p := NewGossip(g, PushPull, 0, NewRand(12))
	rounds, ok := p.CompletionTime(10000)
	if !ok || rounds < 3 {
		t.Fatalf("gossip rounds=%d ok=%v", rounds, ok)
	}
	if Push.String() != "push" {
		t.Fatal("gossip mode naming broken")
	}
}

func TestSpectralAPI(t *testing.T) {
	g := Hypercube(4)
	res := AnalyzeSpectrum(g)
	exact := ExactConductance(g)
	if res.PhiLow > exact+1e-9 || res.PhiHigh < exact-1e-9 {
		t.Fatalf("conductance bracket [%v, %v] misses exact %v", res.PhiLow, res.PhiHigh, exact)
	}
	if phi := Conductance(g, []int32{0, 1, 2, 3, 4, 5, 6, 7}); phi <= 0 {
		t.Fatalf("subset conductance %v", phi)
	}
	if _, ok := MixingTime(g, 0.25, 100000); !ok {
		t.Fatal("mixing time did not converge")
	}
}

func TestStatsAPI(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if s := Summarize(xs); s.Mean != 2.5 {
		t.Fatal("summary mean wrong")
	}
	if m, hw := MeanCI(xs); m != 2.5 || hw <= 0 {
		t.Fatal("CI wrong")
	}
	fit := FitPowerLaw([]float64{1, 2, 4}, []float64{2, 8, 32})
	if fit.Exponent < 1.9 || fit.Exponent > 2.1 {
		t.Fatalf("power fit exponent %v", fit.Exponent)
	}
}

func TestRunTrialsAPI(t *testing.T) {
	sample, err := RunTrials(16, 3, func(trial int, src *Rand) (float64, error) {
		return float64(src.Intn(100)), nil
	})
	if err != nil || len(sample) != 16 {
		t.Fatalf("RunTrials: %v, len=%d", err, len(sample))
	}
}

func TestGridTrackerAPI(t *testing.T) {
	tr := NewGridTracker(2, 32, []int{0, 0}, []int{10, 10}, NewRand(13))
	steps, ok := tr.RunToTarget(1000000)
	if !ok || steps < 20 {
		t.Fatalf("tracker steps=%d ok=%v", steps, ok)
	}
}

func TestEdgeListRoundTripAPI(t *testing.T) {
	g := Lollipop(4, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip changed graph")
	}
	var dot bytes.Buffer
	if err := WriteDOT(&dot, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "--") {
		t.Fatal("DOT output missing edges")
	}
}

func TestGeneralCobraWalkAPI(t *testing.T) {
	g := Cycle(48)
	w := NewGeneralCobraWalk(g, BernoulliBranching(1, 2, 0.5), 0, NewRand(3))
	w.Reset(0)
	steps, ok := w.RunUntilCovered()
	if !ok || steps < 24 {
		t.Fatalf("general walk steps=%d ok=%v", steps, ok)
	}
	if ConstantBranching(3)(0, 0, nil) != 3 {
		t.Fatal("constant branching wrong")
	}
	if DegreeCappedBranching(g, 5)(0, 0, nil) != 2 {
		t.Fatal("degree cap wrong on cycle")
	}
	if PeriodicBranching(4, 2)(0, 1, nil) != 1 {
		t.Fatal("periodic branching wrong")
	}
}

func TestGraphProductsAPI(t *testing.T) {
	p := CartesianProduct(Path(4), Path(4))
	g := Grid(2, 4)
	if p.N() != g.N() || p.M() != g.M() {
		t.Fatal("cartesian product does not match grid")
	}
	tp := TensorProduct(Cycle(5), Cycle(5))
	if tp.N() != 25 {
		t.Fatal("tensor product size wrong")
	}
}

func TestExactHittingAPI(t *testing.T) {
	g := Path(10)
	h := ExactHittingTimes(g, 9, 1e-10, 10000000)
	if h[0] < 80 || h[0] > 82 {
		t.Fatalf("path exact hitting %v, want 81", h[0])
	}
	rt := ExactReturnTime(g, 0, 1e-10, 10000000)
	want := 2 * float64(g.M()) / float64(g.Degree(0))
	if rt < want-1e-3 || rt > want+1e-3 {
		t.Fatalf("return time %v, want %v", rt, want)
	}
}

func TestSISAPI(t *testing.T) {
	g := Complete(30)
	p := NewSIS(g, []int32{0}, SISConfig{K: 2, Beta: 1, Gamma: 1}, NewRand(5))
	outcome, rounds := p.Run()
	if outcome != SISFullExposure {
		t.Fatalf("outcome %v after %d rounds", outcome, rounds)
	}
	surv, err := SISSurvivalProbability(g, 0, SISConfig{K: 2, Beta: 0.9, Gamma: 1, MaxRounds: 100000}, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if surv < 0.5 {
		t.Fatalf("high-beta survival %v too low", surv)
	}
}

func TestExperimentRegistryAPI(t *testing.T) {
	all := Experiments()
	if len(all) != 20 {
		t.Fatalf("expected 20 experiments, got %d", len(all))
	}
	if _, err := RunExperiment("E99", QuickScale, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentE13(t *testing.T) {
	res, err := RunExperiment("E13", QuickScale, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "E13" || len(res.Tables) == 0 {
		t.Fatal("experiment result malformed")
	}
}

func TestBFSAndDiameterAPI(t *testing.T) {
	g := Path(10)
	dist := BFS(g, 0)
	if dist[9] != 9 {
		t.Fatal("BFS wrong")
	}
	if Diameter(g) != 9 {
		t.Fatal("diameter wrong")
	}
}

func TestSparklineAPI(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q wrong length", s)
	}
	ds := Downsample([]float64{1, 1, 2, 2}, 2)
	if len(ds) != 2 || ds[0] != 1 || ds[1] != 2 {
		t.Fatalf("downsample = %v", ds)
	}
}

package epidemic

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestIdealizationMatchesCobraExactly(t *testing.T) {
	// With Beta = 1 and Gamma = 1 the SIS process consumes randomness in
	// the same order as the cobra engine, so identical seeds must give
	// identical infected sets round by round.
	g := graph.MustRandomRegular(60, 4, 5)
	for seed := uint64(0); seed < 5; seed++ {
		sis := New(g, []int32{0}, Config{K: 2, Beta: 1, Gamma: 1}, rng.New(seed))
		cobra := core.New(g, core.Config{K: 2}, rng.New(seed))
		cobra.Reset(0)
		for round := 0; round < 40; round++ {
			sis.Step()
			cobra.Step()
			if sis.InfectedCount() != cobra.ActiveCount() {
				t.Fatalf("seed %d round %d: SIS %d infected vs cobra %d active",
					seed, round, sis.InfectedCount(), cobra.ActiveCount())
			}
			if sis.EverInfectedCount() != cobra.CoveredCount() {
				t.Fatalf("seed %d round %d: exposure %d vs coverage %d",
					seed, round, sis.EverInfectedCount(), cobra.CoveredCount())
			}
		}
	}
}

func TestLowBetaCanGoExtinct(t *testing.T) {
	// With a very low transmission probability the epidemic dies out
	// essentially always.
	g := graph.Cycle(50)
	extinct := 0
	for i := 0; i < 30; i++ {
		p := New(g, []int32{0}, Config{K: 1, Beta: 0.05, Gamma: 1}, rng.NewStream(3, i))
		outcome, _ := p.Run()
		if outcome == Extinction {
			extinct++
		}
	}
	if extinct < 25 {
		t.Fatalf("only %d/30 low-beta runs went extinct", extinct)
	}
}

func TestHighBetaReachesFullExposure(t *testing.T) {
	g := graph.Complete(40)
	for i := 0; i < 10; i++ {
		p := New(g, []int32{0}, Config{K: 2, Beta: 1, Gamma: 1}, rng.NewStream(7, i))
		outcome, rounds := p.Run()
		if outcome != FullExposure {
			t.Fatalf("run %d ended %v after %d rounds", i, outcome, rounds)
		}
	}
}

func TestPersistenceWithoutRecovery(t *testing.T) {
	// Gamma = 0: infected vertices never recover, so prevalence is
	// monotone and the epidemic cannot go extinct.
	g := graph.Grid(2, 8)
	p := New(g, []int32{0}, Config{K: 1, Beta: 0.5, Gamma: 0}, rng.New(9))
	prev := p.InfectedCount()
	for i := 0; i < 300 && p.EverInfectedCount() < g.N(); i++ {
		p.Step()
		if p.InfectedCount() < prev {
			t.Fatal("prevalence decreased with Gamma=0")
		}
		prev = p.InfectedCount()
	}
	if p.Extinct() {
		t.Fatal("extinction with Gamma=0 impossible")
	}
}

func TestSurvivalMonotoneInBeta(t *testing.T) {
	g := graph.MustRandomRegular(100, 4, 11)
	low, err := SurvivalProbability(g, 0, Config{K: 2, Beta: 0.15, Gamma: 1, MaxRounds: 100000}, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	high, err := SurvivalProbability(g, 0, Config{K: 2, Beta: 0.9, Gamma: 1, MaxRounds: 100000}, 60, 14)
	if err != nil {
		t.Fatal(err)
	}
	if high <= low {
		t.Fatalf("survival not monotone in beta: %.2f (β=.15) vs %.2f (β=.9)", low, high)
	}
	if high < 0.8 {
		t.Fatalf("high-beta survival %.2f unexpectedly low", high)
	}
}

func TestPeakAndTotals(t *testing.T) {
	g := graph.Complete(30)
	p := New(g, []int32{0}, Config{K: 2, Beta: 1, Gamma: 1}, rng.New(15))
	outcome, _ := p.Run()
	if outcome != FullExposure {
		t.Fatalf("outcome %v", outcome)
	}
	if p.Peak() < 2 || p.Peak() > g.N() {
		t.Fatalf("peak %d out of range", p.Peak())
	}
	if p.TotalInfections() < int64(g.N()-1) {
		t.Fatalf("total infections %d below n-1", p.TotalInfections())
	}
}

func TestTimeoutOutcome(t *testing.T) {
	g := graph.Cycle(100)
	p := New(g, []int32{0}, Config{K: 1, Beta: 1, Gamma: 0, MaxRounds: 3}, rng.New(1))
	outcome, rounds := p.Run()
	if outcome != Timeout || rounds != 3 {
		t.Fatalf("outcome %v after %d rounds, want timeout at 3", outcome, rounds)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if FullExposure.String() != "full-exposure" || Extinction.String() != "extinction" ||
		Timeout.String() != "timeout" {
		t.Fatal("outcome names wrong")
	}
}

func TestDuplicatePatientZeroCoalesced(t *testing.T) {
	g := graph.Cycle(10)
	p := New(g, []int32{3, 3, 7}, Config{K: 2, Beta: 1, Gamma: 1}, rng.New(2))
	if p.InfectedCount() != 2 {
		t.Fatalf("initial infected %d, want 2", p.InfectedCount())
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Cycle(5)
	for name, cfg := range map[string]Config{
		"K0":       {K: 0, Beta: 1, Gamma: 1},
		"betaHigh": {K: 1, Beta: 1.5, Gamma: 1},
		"gammaNeg": {K: 1, Beta: 1, Gamma: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			New(g, []int32{0}, cfg, rng.New(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty patient zero accepted")
			}
		}()
		New(g, nil, Config{K: 1, Beta: 1, Gamma: 1}, rng.New(1))
	}()
}

// TestIdealizationCounterMapping pins how the Beta = Gamma = 1
// idealization reads its core.Walk: the infected set is the active set
// (same vertices, same order), exposure is coverage, rounds are steps,
// every vertex of each new infected set is one infection event, and the
// peak is the largest frontier, the duplicate-coalesced start included.
// The graph reaches dense rounds, whose frontier order is ascending.
func TestIdealizationCounterMapping(t *testing.T) {
	g := graph.MustRandomRegular(400, 5, 8)
	start := []int32{3, 9, 3, 77}
	sis := New(g, start, Config{K: 2, Beta: 1, Gamma: 1}, rng.New(31))
	cobra := core.New(g, core.Config{K: 2}, rng.New(31))
	cobra.ResetSet(start)
	var total int64
	peak := cobra.ActiveCount()
	for round := 1; round <= 30; round++ {
		sis.Step()
		cobra.Step()
		total += int64(cobra.ActiveCount())
		peak = max(peak, cobra.ActiveCount())
		got, want := sis.AppendInfected(nil), cobra.AppendActive(nil)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: infected %v, active %v", round, got, want)
		}
		if sis.EverInfectedCount() != cobra.CoveredCount() || sis.Rounds() != cobra.Steps() ||
			sis.TotalInfections() != total || sis.Peak() != peak {
			t.Fatalf("round %d: exposure %d rounds %d infections %d peak %d; cobra covered %d steps %d, frontier sum %d, peak %d",
				round, sis.EverInfectedCount(), sis.Rounds(), sis.TotalInfections(), sis.Peak(),
				cobra.CoveredCount(), cobra.Steps(), total, peak)
		}
	}
}

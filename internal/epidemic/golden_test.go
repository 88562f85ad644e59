package epidemic

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestSISStreamGolden pins the SIS draw stream round by round: an
// FNV-1a digest over every round's infected set, in AppendInfected
// order, and exposure count until the run ends, plus the outcome, the
// rounds, the cumulative infection count and the peak. The values were
// recorded before the Beta = Gamma = 1 idealization stepped through
// core.Walk; the idealization cases reach dense rounds, and the
// thinned cases run the contact loop with its Beta and Gamma draws.
func TestSISStreamGolden(t *testing.T) {
	regular := graph.MustRandomRegular(600, 5, 2)
	grid := graph.Grid(2, 24)
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		cfg     Config
		seed    uint64
		outcome Outcome
		rounds  int
		total   int64
		peak    int
		digest  uint64
	}{
		{"ideal-regular", regular, Config{K: 2, Beta: 1, Gamma: 1}, 21, FullExposure, 16, 3220, 477, 0x2fb7ef6015342106},
		{"ideal-grid", grid, Config{K: 2, Beta: 1, Gamma: 1}, 22, FullExposure, 59, 6190, 248, 0xc2ff2935ce50b12b},
		{"ideal-k3", regular, Config{K: 3, Beta: 1, Gamma: 1}, 23, FullExposure, 11, 2406, 573, 0x3d0570c65eeb56f8},
		{"beta", regular, Config{K: 2, Beta: 0.7, Gamma: 1, MaxRounds: 400}, 24, FullExposure, 45, 5304, 307, 0xda4c7ec3430b7ca7},
		{"gamma", grid, Config{K: 2, Beta: 1, Gamma: 0.6, MaxRounds: 400}, 25, FullExposure, 56, 11117, 537, 0xd0e6eb2c2fae5032},
		{"beta-gamma", regular, Config{K: 2, Beta: 0.8, Gamma: 0.5, MaxRounds: 400}, 26, FullExposure, 16, 2760, 522, 0x2b33d30d05346a43},
	} {
		p := New(tc.g, []int32{0}, tc.cfg, rng.New(tc.seed))
		var h uint64 = 1469598103934665603
		mix := func(x uint64) { h ^= x; h *= 1099511628211 }
		var f []int32
		outcome := Timeout
		for {
			if p.EverInfectedCount() == tc.g.N() {
				outcome = FullExposure
				break
			}
			if p.Extinct() {
				outcome = Extinction
				break
			}
			if p.Rounds() >= p.MaxRounds() {
				break
			}
			p.Step()
			f = p.AppendInfected(f[:0])
			mix(uint64(len(f)))
			for _, v := range f {
				mix(uint64(v))
			}
			mix(uint64(p.EverInfectedCount()))
		}
		if outcome != tc.outcome || p.Rounds() != tc.rounds || p.TotalInfections() != tc.total ||
			p.Peak() != tc.peak || h != tc.digest {
			t.Errorf("%s: %v after %d rounds, %d infections, peak %d, digest %#x; golden %v, %d, %d, %d, %#x",
				tc.name, outcome, p.Rounds(), p.TotalInfections(), p.Peak(), h,
				tc.outcome, tc.rounds, tc.total, tc.peak, tc.digest)
		}
	}
}

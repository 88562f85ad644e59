package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E12Trees reproduces the Section 3 remark that 2-cobra walks on k-ary
// trees have cover time proportional to the tree's diameter for k = 2
// and k = 3: the ratio cover/diameter should stay roughly constant as
// depth grows.
func E12Trees(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E12",
		Claim: "2-cobra cover time on k-ary trees (k=2,3) is proportional to the diameter",
	}
	trials := 15
	depths := []int{3, 4, 5, 6, 7}
	if scale == Full {
		trials = 40
		depths = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	}
	table := sim.NewTable("E12: k-ary tree cover times (2-cobra, root start)",
		"k", "depth", "n", "diameter", "cover mean", "95% CI", "cover/diam")
	for _, k := range []int{2, 3} {
		var ratios []float64
		var points []sim.Point
		for _, depth := range depths {
			if k == 3 && depth > 9 {
				continue // 3^9 ≈ 30k vertices is plenty
			}
			g := graph.KAryTree(k, depth)
			diam := 2 * depth
			sample, err := sim.RunTrialsPooled(trials, rng.Stream(seed, k*100+depth),
				core.Trials(g, core.Config{K: 2}, []int32{0}, -1))
			if err != nil {
				return nil, err
			}
			mean, ci, _ := sim.SummaryCells(sample)
			ratio := stats.Mean(sample) / float64(diam)
			ratios = append(ratios, ratio)
			table.AddRowf(k, depth, g.N(), diam, mean, ci, ratio)
			points = append(points, sim.Point{X: float64(diam), Sample: sample})
		}
		fit := sim.FitExponent(points)
		res.addFinding("k=%d: cover ~ diam^%.2f (remark predicts 1; ratio drift %.2f→%.2f; R²=%.3f)",
			k, fit.Exponent, ratios[0], ratios[len(ratios)-1], fit.R2)
		// Shallow depths carry a transient; the asymptotic claim is about
		// deep trees, so also fit the deeper half of the sweep.
		if len(points) >= 4 {
			tail := points[len(points)/2:]
			tailFit := sim.FitExponent(tail)
			res.addFinding("k=%d tail fit (deeper half): cover ~ diam^%.2f (asymptotic regime)",
				k, tailFit.Exponent)
		}
	}
	res.Tables = append(res.Tables, table)
	return res, nil
}

// E13Star reproduces the Section 6 discussion: the star graph forces
// Ω(n log n) cobra-walk cover time (the hub can inform at most 2 leaves
// per visit, and the leaf coupon collection costs the log factor); the
// paper conjectures O(n log n) is the general worst case. We verify the
// cover/(n ln n) ratio is flat in n.
func E13Star(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E13",
		Claim: "star-graph cover time scales as Θ(n log n) (§6 lower-bound family)",
	}
	trials := 20
	sizes := []int{64, 128, 256, 512}
	if scale == Full {
		trials = 50
		sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	}
	table := sim.NewTable("E13: star graph cover times (2-cobra, hub start)",
		"n", "cover mean", "95% CI", "n·ln n", "cover/(n·ln n)")
	var points []sim.Point
	var ratios []float64
	for i, n := range sizes {
		g := graph.Star(n)
		sample, err := sim.RunTrialsPooled(trials, rng.Stream(seed, 40+i),
			core.Trials(g, core.Config{K: 2}, []int32{0}, -1))
		if err != nil {
			return nil, err
		}
		nlogn := float64(n) * math.Log(float64(n))
		mean, ci, _ := sim.SummaryCells(sample)
		ratio := stats.Mean(sample) / nlogn
		ratios = append(ratios, ratio)
		table.AddRowf(n, mean, ci, nlogn, ratio)
		points = append(points, sim.Point{X: float64(n), Sample: sample})
	}
	res.Tables = append(res.Tables, table)
	fit := sim.FitExponent(points)
	res.addFinding("star cover ~ n^%.2f (Θ(n log n) predicts slightly above 1; R²=%.3f)",
		fit.Exponent, fit.R2)
	res.addFinding("cover/(n ln n) ratio across sizes: %.3f → %.3f (flat ⇒ Θ(n log n))",
		ratios[0], ratios[len(ratios)-1])
	return res, nil
}

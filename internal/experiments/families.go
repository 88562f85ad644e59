package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E19RapidCoverage reproduces the §4 claim that Theorem 8 "guarantees
// rapid coverage" for a wide class of graphs beyond expanders — the
// paper names the hypercube, power-law graphs, and random geometric
// graphs. For each family we sweep sizes and report cover time against
// n and polylog(n): coverage is "rapid" when it grows polylogarithmically
// (hypercube, power-law) or like the diameter (RGG), in stark contrast
// to the random walk's Θ(n log n)-or-worse.
func E19RapidCoverage(scale Scale, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "E19",
		Claim: "rapid 2-cobra coverage on the §4 families: hypercube, power-law, random geometric",
	}
	trials := 12
	hcDims := []int{6, 8, 10}
	plSizes := []int{256, 512, 1024, 2048}
	rggSizes := []int{256, 512, 1024, 2048}
	if scale == Full {
		trials = 40
		hcDims = []int{6, 8, 10, 12, 14}
		plSizes = []int{256, 512, 1024, 2048, 4096, 8192}
		rggSizes = []int{256, 512, 1024, 2048, 4096, 8192}
	}
	table := sim.NewTable("E19: 2-cobra cover times on the §4 rapid-coverage families",
		"graph", "n", "cover mean", "95% CI", "ln n", "cover/ln n", "cover/n")
	measure := func(g *graph.Graph, streamBase int) (sim.Point, error) {
		sample, err := sim.RunTrialsPooled(trials, rng.Stream(seed, streamBase),
			core.Trials(g, core.Config{K: 2}, []int32{0}, -1))
		if err != nil {
			return sim.Point{}, err
		}
		logn := math.Log(float64(g.N()))
		mean, ci, _ := sim.SummaryCells(sample)
		table.AddRowf(g.Name(), g.N(), mean, ci, logn,
			stats.Mean(sample)/logn, stats.Mean(sample)/float64(g.N()))
		return sim.Point{X: float64(g.N()), Sample: sample}, nil
	}

	var hcPts, plPts, rggPts []sim.Point
	for i, dim := range hcDims {
		pt, err := measure(graph.Hypercube(dim), 100+i)
		if err != nil {
			return nil, err
		}
		hcPts = append(hcPts, pt)
	}
	for i, n := range plSizes {
		maxDeg := int(math.Sqrt(float64(n)))
		g := graph.PowerLaw(n, 2.5, 2, maxDeg, rng.Stream(seed, 200+i))
		pt, err := measure(g, 300+i)
		if err != nil {
			return nil, err
		}
		plPts = append(plPts, pt)
	}
	for i, n := range rggSizes {
		// Radius chosen ~ sqrt(c ln n / n), the connectivity threshold
		// regime where RGGs have conductance ~ radius.
		r := math.Sqrt(2.2 * math.Log(float64(n)) / (math.Pi * float64(n)))
		g := graph.RandomGeometric(n, r, true, rng.Stream(seed, 400+i))
		pt, err := measure(g, 500+i)
		if err != nil {
			return nil, err
		}
		rggPts = append(rggPts, pt)
	}
	res.Tables = append(res.Tables, table)

	hcFit := sim.FitExponent(hcPts)
	plFit := sim.FitExponent(plPts)
	rggFit := sim.FitExponent(rggPts)
	res.addFinding("hypercube: cover ~ n^%.2f (polylog coverage: exponent ≈ 0)", hcFit.Exponent)
	res.addFinding("power-law: cover ~ n^%.2f (rapid if ≪ 1)", plFit.Exponent)
	res.addFinding("random geometric: cover ~ n^%.2f (diameter ~ n^0.5 regime)", rggFit.Exponent)
	return res, nil
}

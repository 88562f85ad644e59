// Quickstart: build the paper's grid [0,32]², run a 2-cobra walk from
// the origin, and print the cover time — the headline quantity of
// Theorem 3 — together with a comparison against a simple random walk.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// The paper's [0,n]^d grid with n = 32: Grid(2, 33) has 33 points per
	// dimension.
	g := repro.Grid(2, 33)
	fmt.Printf("graph: %s\n", g)

	// One 2-cobra walk, deterministic under the seed.
	steps, ok := repro.CoverTime(g, 2, 0, 42)
	if !ok {
		log.Fatal("cover walk exceeded its step cap")
	}
	fmt.Printf("single 2-cobra run covered all %d vertices in %d rounds\n", g.N(), steps)

	// Averaged over independent trials, with a 95% confidence interval.
	sample, err := repro.MeanCoverTime(g, 2, 0, 30, 7)
	if err != nil {
		log.Fatal(err)
	}
	mean, hw := repro.MeanCI(sample)
	fmt.Printf("2-cobra cover time over 30 trials: %.1f ± %.1f rounds\n", mean, hw)

	// Baseline: the simple random walk needs quadratically many steps in
	// the side length (up to logs); the cobra walk is linear (Theorem 3).
	// The simple walk is the 1-cobra walk; DenseTheta -1 keeps its single
	// pebble on the sparse loop, one uniform neighbor draw per step.
	rwCfg := repro.CobraConfig{K: 1, DenseTheta: -1, MaxSteps: 100 * g.N() * g.N()}
	rw := repro.NewCobraWalk(g, rwCfg, repro.NewRand(7))
	rw.Reset(0)
	rwSteps, ok := rw.RunUntilCovered()
	if !ok {
		log.Fatal("random walk exceeded its step cap")
	}
	fmt.Printf("simple random walk covered the same grid in %d steps (%.0fx slower)\n",
		rwSteps, float64(rwSteps)/mean)
}

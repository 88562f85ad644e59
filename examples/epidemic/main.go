// Epidemic: the paper motivates cobra walks as an idealized SIS
// (susceptible-infected-susceptible) process — each round, every
// infected agent infects k random contacts and recovers. This example
// runs a 2-cobra walk on a power-law contact network (the standard model
// of human contact structure), prints the infection curve, and reports
// the time to full exposure ("everyone has been infected at least once")
// for several branching factors.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// A 2000-person contact network with power-law degree distribution
	// (exponent 2.5, degrees 2..44) — heavy-tailed like real contact
	// graphs.
	const people = 2000
	g := repro.PowerLaw(people, 2.5, 2, 44, 11)
	fmt.Printf("contact network: %s\n\n", g)

	// Infection curve of one outbreak: active infections and cumulative
	// exposure per round.
	w := repro.NewCobraWalk(g, repro.CobraConfig{K: 2}, repro.NewRand(1))
	w.Reset(0)
	fmt.Println("round  active  exposed  curve")
	for round := 0; w.CoveredCount() < g.N(); round++ {
		bar := strings.Repeat("#", w.ActiveCount()*40/g.N()+1)
		if round%5 == 0 {
			fmt.Printf("%5d  %6d  %7d  %s\n", round, w.ActiveCount(), w.CoveredCount(), bar)
		}
		w.Step()
		if round > 100000 {
			log.Fatal("outbreak did not saturate")
		}
	}
	fmt.Printf("full exposure after %d rounds\n\n", w.Steps())

	// Time-to-full-exposure vs infectiousness (branching factor k),
	// averaged over outbreaks from random patient zero.
	fmt.Println("k (contacts infected per round)  mean rounds to full exposure")
	for _, k := range []int{1, 2, 3, 4} {
		kk := k
		sample, err := repro.RunTrials(20, uint64(100+k), func(trial int, src *repro.Rand) (float64, error) {
			w := repro.NewCobraWalk(g, repro.CobraConfig{K: kk}, src)
			w.Reset(int32(src.Intn(g.N())))
			steps, ok := w.RunUntilCovered()
			if !ok {
				return 0, fmt.Errorf("outbreak %d did not saturate", trial)
			}
			return float64(steps), nil
		})
		if err != nil {
			log.Fatal(err)
		}
		mean, hw := repro.MeanCI(sample)
		fmt.Printf("%31d  %.1f ± %.1f\n", k, mean, hw)
	}

	// The cobra walk is the β = 1 idealization of the SIS model. With
	// imperfect transmission the outbreak can die out: sweep β and watch
	// the survival probability cross the epidemic threshold.
	fmt.Println("\nSIS with imperfect transmission (K=2 contacts, full recovery):")
	fmt.Println("β (transmission prob)  P(outbreak survives to full exposure)")
	for _, beta := range []float64{0.2, 0.35, 0.5, 0.75, 1.0} {
		cfg := repro.SISConfig{K: 2, Beta: beta, Gamma: 1, MaxRounds: 200000}
		surv, err := repro.SISSurvivalProbability(g, 0, cfg, 40, uint64(1000+int(beta*100)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%21.2f  %.2f\n", beta, surv)
	}
}

// Package epidemic implements the SIS (susceptible-infected-susceptible)
// contact process that the paper's introduction presents the cobra walk
// as an idealization of: "in each time step, an infected agent infects k
// random neighbors and recovers, but can be infected again".
//
// The general process has per-contact transmission probability Beta and
// per-round recovery probability Gamma; each infected vertex draws K
// random neighbor contacts (uniformly, with replacement) per round. With
// Beta = 1 and Gamma = 1 the infected-set dynamics are exactly the
// K-cobra walk, so that idealization runs on a core.Walk: the infected
// set is the walk's active set and exposure its covered set, which makes
// the two processes stream-for-stream identical by construction. Only
// Beta < 1 or Gamma < 1 runs the contact loop of this package.
package epidemic

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Config parameterizes an SIS process.
type Config struct {
	// K is the number of neighbor contacts each infected vertex draws
	// per round (with replacement).
	K int
	// Beta is the per-contact transmission probability.
	Beta float64
	// Gamma is the per-round recovery probability of an infected vertex
	// (applied after its contacts). Gamma = 1 reproduces the paper's
	// idealization: infect k neighbors, then recover.
	Gamma float64
	// MaxRounds caps runs; zero selects a generous default.
	MaxRounds int
}

// validate panics on nonsensical configuration.
func (c Config) validate() {
	if c.K < 1 {
		panic("epidemic: K must be >= 1")
	}
	if c.Beta < 0 || c.Beta > 1 || c.Gamma < 0 || c.Gamma > 1 {
		panic("epidemic: Beta and Gamma must be in [0,1]")
	}
}

// Process is a running SIS epidemic.
type Process struct {
	g   *graph.Graph
	cfg Config
	rnd *rng.Source

	// walk runs the Beta = Gamma = 1 idealization: infected is its
	// active set, exposure its covered set. It is nil when Beta < 1 or
	// Gamma < 1, and the contact-loop state below is used instead.
	walk *core.Walk

	infected  []int32     // current infected vertices (unique)
	next      []int32     // next round's infected under construction
	nextSet   *bitset.Set // membership for next
	everSet   *bitset.Set // ever-infected (exposure)
	everCount int

	rounds      int
	peak        int
	totalInfect int64 // cumulative infection events (for attack-rate stats)
}

// New creates an SIS process with the given patient-zero set.
func New(g *graph.Graph, patientZero []int32, cfg Config, rnd *rng.Source) *Process {
	cfg.validate()
	if len(patientZero) == 0 {
		panic("epidemic: need at least one initially infected vertex")
	}
	if g.MinDegree() == 0 && g.N() > 1 {
		panic("epidemic: graph has an isolated vertex")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 200*g.N()*g.N() + 100000
	}
	p := &Process{g: g, cfg: cfg, rnd: rnd}
	if cfg.Beta == 1 && cfg.Gamma == 1 {
		p.walk = core.New(g, core.Config{K: cfg.K, MaxSteps: cfg.MaxRounds}, rnd)
		p.walk.ResetSet(patientZero)
	} else {
		p.nextSet = bitset.New(g.N())
		p.everSet = bitset.New(g.N())
		for _, v := range patientZero {
			if !p.everSet.TestAndAdd(int(v)) {
				p.infected = append(p.infected, v)
				p.everCount++
			}
		}
	}
	p.peak = p.InfectedCount()
	return p
}

// InfectedCount returns the current prevalence.
func (p *Process) InfectedCount() int {
	if p.walk != nil {
		return p.walk.ActiveCount()
	}
	return len(p.infected)
}

// EverInfectedCount returns the cumulative exposure (distinct vertices
// ever infected).
func (p *Process) EverInfectedCount() int {
	if p.walk != nil {
		return p.walk.CoveredCount()
	}
	return p.everCount
}

// Rounds returns the number of rounds executed.
func (p *Process) Rounds() int { return p.rounds }

// Peak returns the largest prevalence observed so far.
func (p *Process) Peak() int { return p.peak }

// Extinct reports whether the infection has died out.
func (p *Process) Extinct() bool { return p.InfectedCount() == 0 }

// MaxRounds returns the effective per-run round cap (the configured
// value, or the generous default when the config left it zero).
func (p *Process) MaxRounds() int { return p.cfg.MaxRounds }

// AppendInfected appends the currently infected vertices to dst and
// returns the extended slice.
func (p *Process) AppendInfected(dst []int32) []int32 {
	if p.walk != nil {
		return p.walk.AppendActive(dst)
	}
	return append(dst, p.infected...)
}

// TotalInfections returns the cumulative count of infection events
// (including reinfection of previously exposed vertices).
func (p *Process) TotalInfections() int64 { return p.totalInfect }

// Step executes one synchronous round: every infected vertex draws K
// contacts, transmitting with probability Beta each; it then recovers
// with probability Gamma, otherwise remaining infected next round. In
// the idealization every vertex of the new infected set is one
// infection event.
func (p *Process) Step() {
	if p.walk != nil {
		p.walk.Step()
		p.totalInfect += int64(p.walk.ActiveCount())
	} else {
		p.contacts()
	}
	p.peak = max(p.peak, p.InfectedCount())
	p.rounds++
}

// contacts runs one round of the contact loop, for Beta < 1 or
// Gamma < 1: its Beta and Gamma draws interleave with the neighbor
// draws in vertex order.
func (p *Process) contacts() {
	g := p.g
	for _, v := range p.infected {
		deg := g.Degree(v)
		for j := 0; j < p.cfg.K; j++ {
			if p.cfg.Beta < 1 && p.rnd.Float64() >= p.cfg.Beta {
				continue
			}
			u := g.Neighbor(v, p.rnd.Int31n(deg))
			if !p.nextSet.TestAndAdd(int(u)) {
				p.next = append(p.next, u)
				p.totalInfect++
				if !p.everSet.TestAndAdd(int(u)) {
					p.everCount++
				}
			}
		}
		if p.cfg.Gamma < 1 && p.rnd.Float64() >= p.cfg.Gamma {
			// Stays infected.
			if !p.nextSet.TestAndAdd(int(v)) {
				p.next = append(p.next, v)
			}
		}
	}
	p.infected, p.next = p.next, p.infected[:0]
	for _, u := range p.infected {
		p.nextSet.Remove(int(u))
	}
}

// Outcome describes how a run ended.
type Outcome int

const (
	// FullExposure: every vertex has been infected at least once.
	FullExposure Outcome = iota
	// Extinction: the infection died out before full exposure.
	Extinction
	// Timeout: the round cap was reached.
	Timeout
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case FullExposure:
		return "full-exposure"
	case Extinction:
		return "extinction"
	default:
		return "timeout"
	}
}

// Run steps until full exposure, extinction, or the round cap, and
// returns the outcome with the rounds taken.
func (p *Process) Run() (Outcome, int) {
	n := p.g.N()
	for {
		if p.EverInfectedCount() == n {
			return FullExposure, p.rounds
		}
		if p.Extinct() {
			return Extinction, p.rounds
		}
		if p.rounds >= p.cfg.MaxRounds {
			return Timeout, p.rounds
		}
		p.Step()
	}
}

// SurvivalProbability estimates, over trials independent runs from
// patient zero, the probability that the epidemic reaches full exposure
// rather than going extinct (runs hitting the cap count as survival, so
// choose caps generously).
func SurvivalProbability(g *graph.Graph, patientZero int32, cfg Config, trials int, seed uint64) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("epidemic: trials must be >= 1")
	}
	survived := 0
	for i := 0; i < trials; i++ {
		p := New(g, []int32{patientZero}, cfg, rng.NewStream(seed, i))
		outcome, _ := p.Run()
		if outcome != Extinction {
			survived++
		}
	}
	return float64(survived) / float64(trials), nil
}

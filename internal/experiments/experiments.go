// Package experiments implements the paper-reproduction experiments
// E1-E20: one experiment per theorem, lemma-level mechanism, or remark
// of the paper. Each experiment runs a Monte Carlo
// workload on the relevant graph families, renders result tables, and
// extracts headline findings (scaling exponents, bound-satisfaction
// ratios) whose shape the paper's theory predicts.
//
// Every experiment takes a Scale (Quick for CI-sized runs, Full for the
// full-size tables of cobractl experiments -scale full) and a root
// seed, and is deterministic given both.
package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick runs in seconds; used by tests and benchmarks.
	Quick Scale = iota
	// Full runs the full-size configuration (minutes), as cobractl
	// experiments -scale full does.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Claim is the paper claim under test.
	Claim string
	// Tables holds the rendered measurement tables.
	Tables []*sim.Table
	// Findings are the headline conclusions, one line each.
	Findings []string
}

// addFinding appends a formatted finding line.
func (r *Result) addFinding(format string, args ...interface{}) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// Runner is a named experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(scale Scale, seed uint64) (*Result, error)
}

// All returns the full experiment registry in index order.
func All() []Runner {
	return []Runner{
		{"E1", "grid cover time O(n) (Theorem 3)", E1GridCover},
		{"E2", "grid two-step drift (Lemma 2)", E2GridDrift},
		{"E3", "queue-view drift (Lemmas 4-6)", E3QueueDrift},
		{"E4", "conductance bound (Theorem 8)", E4Conductance},
		{"E5", "expander cover O(log² n) (Corollary 9)", E5Expander},
		{"E6", "Walt dominance (Lemma 10)", E6WaltDominance},
		{"E7", "tensor collision probability (Lemma 11)", E7TensorCollision},
		{"E8", "δ-regular hitting O(n^{2-1/δ}) (Theorem 15)", E8RegularHitting},
		{"E9", "general-graph hitting O(n^{11/4}) (Theorem 20)", E9Lollipop},
		{"E10", "biased-walk stationary bounds (Thm 13/L16/C17)", E10BiasedWalk},
		{"E11", "cobra dominates biased walk (Lemma 14)", E11Dominance},
		{"E12", "k-ary tree cover ∝ diameter (§3 remark)", E12Trees},
		{"E13", "star graph Θ(n log n) (§6)", E13Star},
		{"E14", "Matthews relation (Theorem 1)", E14Matthews},
		{"E15", "branching-factor ablation", E15BranchingK},
		{"E16", "cobra vs gossip vs parallel walks", E16Baselines},
		{"E17", "branching variations (extension of the §1 remark)", E17BranchingVariations},
		{"E18", "active-set growth trajectories", E18Trajectories},
		{"E19", "rapid coverage beyond expanders (§4 families)", E19RapidCoverage},
		{"E20", "fault tolerance under message loss (robustness motivation)", E20FaultTolerance},
	}
}

// Get returns the runner with the given ID, or false.
func Get(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// runQuick runs one experiment at Quick scale and applies shared sanity
// checks: non-empty tables with consistent row widths and at least one
// finding.
func runQuick(t *testing.T, run func(Scale, uint64) (*Result, error)) *Result {
	t.Helper()
	res, err := run(Quick, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID == "" || res.Claim == "" {
		t.Fatal("result missing ID or claim")
	}
	if len(res.Tables) == 0 {
		t.Fatal("experiment produced no tables")
	}
	for _, tb := range res.Tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("table %q has no rows", tb.Title)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("table %q row width mismatch", tb.Title)
			}
		}
		// Render paths must not panic and must include the title.
		if tb.Title != "" && !strings.Contains(tb.String(), tb.Title) {
			t.Fatalf("table render lost title %q", tb.Title)
		}
		_ = tb.Markdown()
		_ = tb.CSV()
	}
	if len(res.Findings) == 0 {
		t.Fatal("experiment produced no findings")
	}
	return res
}

func findingContains(res *Result, substr string) bool {
	for _, f := range res.Findings {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

// extractExponent parses the first "~ X^e" finding produced with the
// shared formats; tests use the structured fits instead where possible,
// so this is only a smoke helper.

func TestE1GridCover(t *testing.T) {
	res := runQuick(t, E1GridCover)
	if !findingContains(res, "d=2") {
		t.Fatalf("missing d=2 finding: %v", res.Findings)
	}
}

func TestE2GridDrift(t *testing.T) {
	res := runQuick(t, E2GridDrift)
	if !findingContains(res, "drift") {
		t.Fatalf("missing drift finding: %v", res.Findings)
	}
}

func TestE3QueueDrift(t *testing.T) {
	res := runQuick(t, E3QueueDrift)
	if !findingContains(res, "emptying") {
		t.Fatalf("missing emptying finding: %v", res.Findings)
	}
}

func TestE4Conductance(t *testing.T) {
	res := runQuick(t, E4Conductance)
	if !findingContains(res, "Theorem 8") {
		t.Fatalf("missing bound finding: %v", res.Findings)
	}
}

func TestE5Expander(t *testing.T) {
	res := runQuick(t, E5Expander)
	if !findingContains(res, "random 5-regular") {
		t.Fatalf("missing expander finding: %v", res.Findings)
	}
}

func TestE6WaltDominance(t *testing.T) {
	res := runQuick(t, E6WaltDominance)
	// Dominance must hold on every case (the findings embed true/false).
	for _, f := range res.Findings {
		if strings.Contains(f, "false") {
			t.Fatalf("dominance violated: %s", f)
		}
	}
}

func TestE7TensorCollision(t *testing.T) {
	res := runQuick(t, E7TensorCollision)
	// The structural table's eulerian column must be all true.
	for _, row := range res.Tables[0].Rows {
		if row[2] != "true" {
			t.Fatalf("non-Eulerian tensor construction: %v", row)
		}
	}
}

func TestE8RegularHitting(t *testing.T) {
	res := runQuick(t, E8RegularHitting)
	if !findingContains(res, "cycle") {
		t.Fatalf("missing cycle finding: %v", res.Findings)
	}
}

func TestE9Lollipop(t *testing.T) {
	res := runQuick(t, E9Lollipop)
	if !findingContains(res, "cobra beats RW") {
		t.Fatalf("missing comparison finding: %v", res.Findings)
	}
}

func TestE10BiasedWalk(t *testing.T) {
	runQuick(t, E10BiasedWalk)
}

func TestE11Dominance(t *testing.T) {
	res := runQuick(t, E11Dominance)
	if findingContains(res, "VIOLATION") {
		t.Fatalf("Lemma 14 dominance violated: %v", res.Findings)
	}
}

// TestDominanceSummary pins E11's closing finding on both branches: it
// claims dominance on all cases only when no case violated it.
func TestDominanceSummary(t *testing.T) {
	if got := dominanceSummary(0, 3); !strings.Contains(got, "on all cases") {
		t.Errorf("no violations: summary %q does not claim all cases", got)
	}
	got := dominanceSummary(1, 3)
	if got != "dominance violated on 1 of 3 cases" || strings.Contains(got, "all cases") {
		t.Errorf("one violation: summary %q", got)
	}
}

func TestE12Trees(t *testing.T) {
	res := runQuick(t, E12Trees)
	if !findingContains(res, "k=2") || !findingContains(res, "k=3") {
		t.Fatalf("missing per-k findings: %v", res.Findings)
	}
}

func TestE13Star(t *testing.T) {
	res := runQuick(t, E13Star)
	if !findingContains(res, "n ln n") {
		t.Fatalf("missing ratio finding: %v", res.Findings)
	}
}

func TestE14Matthews(t *testing.T) {
	runQuick(t, E14Matthews)
}

func TestE15BranchingK(t *testing.T) {
	res := runQuick(t, E15BranchingK)
	if !findingContains(res, "speedup") {
		t.Fatalf("missing speedup finding: %v", res.Findings)
	}
}

func TestE16Baselines(t *testing.T) {
	runQuick(t, E16Baselines)
}

func TestE17BranchingVariations(t *testing.T) {
	res := runQuick(t, E17BranchingVariations)
	if !findingContains(res, "branching budget") {
		t.Fatalf("missing budget finding: %v", res.Findings)
	}
}

func TestE18Trajectories(t *testing.T) {
	res := runQuick(t, E18Trajectories)
	if !findingContains(res, "peak active fraction") {
		t.Fatalf("missing peak finding: %v", res.Findings)
	}
	// The star's active set alternates hub/leaves: its peak fraction must
	// be far below the expander's.
	star := trailingFloat(t, res.Findings, "star")
	expander := trailingFloat(t, res.Findings, "random-regular")
	if star > expander/3 {
		t.Fatalf("star peak %.3f should be well below expander peak %.3f", star, expander)
	}
}

// trailingFloat returns the last whitespace-separated float of the
// finding line whose text starts with prefix.
func trailingFloat(t *testing.T, findings []string, prefix string) float64 {
	t.Helper()
	for _, f := range findings {
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		fields := strings.Fields(f)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("finding %q has non-numeric tail: %v", f, err)
		}
		return v
	}
	t.Fatalf("no finding with prefix %q in %v", prefix, findings)
	return 0
}

func TestE19RapidCoverage(t *testing.T) {
	res := runQuick(t, E19RapidCoverage)
	if !findingContains(res, "hypercube") || !findingContains(res, "power-law") {
		t.Fatalf("missing family findings: %v", res.Findings)
	}
	// Hypercube cover must scale polylogarithmically: exponent ≪ 0.5.
	hc := trailingFloatAfter(t, res.Findings, "hypercube: cover ~ n^")
	if hc > 0.5 {
		t.Fatalf("hypercube cover exponent %.2f not polylog-like", hc)
	}
}

// trailingFloatAfter extracts the float immediately following the given
// literal prefix in the matching finding.
func trailingFloatAfter(t *testing.T, findings []string, prefix string) float64 {
	t.Helper()
	for _, f := range findings {
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		rest := strings.TrimPrefix(f, prefix)
		if i := strings.IndexAny(rest, " ("); i > 0 {
			rest = rest[:i]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("finding %q: %v", f, err)
		}
		return v
	}
	t.Fatalf("no finding with prefix %q in %v", prefix, findings)
	return 0
}

func TestE20FaultTolerance(t *testing.T) {
	res := runQuick(t, E20FaultTolerance)
	if !findingContains(res, "phase transition") {
		t.Fatalf("missing phase-transition finding: %v", res.Findings)
	}
	// The drop-rate table: survival at p=0 must be 1 and at the largest
	// drop rate must be 0.
	rows := res.Tables[0].Rows
	if rows[0][1] != "1" {
		t.Fatalf("survival at p=0 is %q, want 1", rows[0][1])
	}
	if last := rows[len(rows)-1][1]; last != "0" {
		t.Fatalf("survival at max drop is %q, want 0", last)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(all))
	}
	seen := map[string]bool{}
	for i, r := range all {
		if r.ID == "" || r.Name == "" || r.Run == nil {
			t.Fatalf("registry entry %d incomplete", i)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	if _, ok := Get("E1"); !ok {
		t.Fatal("Get(E1) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("Get(E99) should fail")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale names wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := E13Star(Quick, 777)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E13Star(Quick, 777)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tables[0].CSV() != b.Tables[0].CSV() {
		t.Fatal("same seed produced different experiment tables")
	}
}

package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// benchOutput renders go test -bench lines: one line per sample of
// each benchmark, in the order given.
func benchOutput(rows map[string][]float64, order ...string) string {
	var b strings.Builder
	b.WriteString("cpu: test\n")
	for _, name := range order {
		for _, ns := range rows[name] {
			fmt.Fprintf(&b, "Benchmark%s-2 \t 1000 \t %.1f ns/op \t 0 B/op\n", name, ns)
		}
	}
	return b.String()
}

func mustParse(t *testing.T, text string) run {
	t.Helper()
	r, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

var gated = []string{"Step", "Resolve"}

func baseRows() map[string][]float64 {
	return map[string][]float64{
		"Step":    {100, 103, 98, 101, 99},
		"Resolve": {80, 82, 79, 81, 80},
		"Other":   {10, 30, 5, 50, 20},
	}
}

func scaled(rows map[string][]float64, name string, f float64) map[string][]float64 {
	out := make(map[string][]float64)
	for k, v := range rows {
		out[k] = append([]float64(nil), v...)
	}
	for i := range out[name] {
		out[name][i] *= f
	}
	return out
}

func TestIdenticalRunsPass(t *testing.T) {
	base := mustParse(t, benchOutput(baseRows(), "Step", "Resolve", "Other"))
	if v := compare(io.Discard, base, base, gated, 0.15); v != pass {
		t.Fatalf("identical runs: verdict %d, want pass", v)
	}
}

func TestGatedRegressionFails(t *testing.T) {
	base := mustParse(t, benchOutput(baseRows(), "Step", "Resolve", "Other"))
	fresh := mustParse(t, benchOutput(scaled(baseRows(), "Resolve", 1.3), "Step", "Resolve", "Other"))
	var out strings.Builder
	if v := compare(&out, base, fresh, gated, 0.15); v != fail {
		t.Fatalf("+30%% on a gated row: verdict %d, want fail\n%s", v, out.String())
	}
	// The same slowdown on an ungated row is context, not a failure.
	fresh = mustParse(t, benchOutput(scaled(baseRows(), "Other", 1.3), "Step", "Resolve", "Other"))
	if v := compare(io.Discard, base, fresh, gated, 0.15); v != pass {
		t.Fatalf("+30%% on an ungated row: verdict %d, want pass", v)
	}
}

func TestMissingGatedRowFails(t *testing.T) {
	base := mustParse(t, benchOutput(baseRows(), "Step", "Resolve", "Other"))
	fresh := mustParse(t, benchOutput(baseRows(), "Step", "Other"))
	if v := compare(io.Discard, base, fresh, gated, 0.15); v != fail {
		t.Fatalf("missing gated row: verdict %d, want fail", v)
	}
}

func TestNoisyGatedRowIsNamed(t *testing.T) {
	base := mustParse(t, benchOutput(baseRows(), "Step", "Resolve", "Other"))
	rows := baseRows()
	rows["Step"] = []float64{100, 130, 98, 140, 99}
	fresh := mustParse(t, benchOutput(rows, "Step", "Resolve", "Other"))
	var out strings.Builder
	if v := compare(&out, base, fresh, gated, 0.15); v != noisy {
		t.Fatalf("noisy gated row: verdict %d, want noisy\n%s", v, out.String())
	}
	if !strings.HasSuffix(out.String(), "benchgate: noisy: Step\n") {
		t.Fatalf("noisy row not named last:\n%s", out.String())
	}
	// One outlying sample is not noise.
	rows["Step"] = []float64{100, 103, 98, 160, 99}
	fresh = mustParse(t, benchOutput(rows, "Step", "Resolve", "Other"))
	if v := compare(io.Discard, base, fresh, gated, 0.15); v != pass {
		t.Fatalf("one outlier: verdict %d, want pass", v)
	}
}

func TestParseStripsProcsAndKeepsOrder(t *testing.T) {
	r := mustParse(t, "goos: linux\ncpu: X\nBenchmarkB-8 10 5.0 ns/op\nBenchmarkA 10 7.0 ns/op 3 allocs/op\nBenchmarkB-8 10 6.0 ns/op\nPASS\n")
	if r.cpu != "X" || strings.Join(r.order, ",") != "B,A" || len(r.ns["B"]) != 2 || r.ns["A"][0] != 7 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("output without results parsed")
	}
}

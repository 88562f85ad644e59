// Command benchgate compares a fresh `go test -bench` run against the
// latest committed BENCH_<date>.txt baseline and fails when a gated
// benchmark's median ns/op has regressed beyond the allowed fraction.
// `make bench-baseline` records baselines; benchgate holds new code to
// them.
//
// Run from the repository root (the Makefile and CI use the wrapper):
//
//	./scripts/bench_gate.sh          # measure + compare in one step
//	go run ./scripts/benchgate -fresh fresh.txt
//
// Both sides are standard benchmark output, one line per run, so a run
// with -count N gives every benchmark N samples and the gate compares
// their medians. The baseline defaults to the newest BENCH_<date>.txt
// in the repository root; the BENCH_<date>.json files of the retired
// JSON harness stay in-tree as history and are never a baseline. Only
// the benchmarks named by -gate fail the run — the remaining shared
// benchmarks are reported for context, because absolute ns/op
// comparisons across different machines are noisy. The gated set is
// kept to the steady-state step kernel, the warm graph resolve and the
// random-regular build, whose five baseline samples each sit within 10%
// of their median.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// run is one parsed `go test -bench` output: ns/op samples per
// benchmark, in first-seen order.
type run struct {
	cpu   string
	order []string
	ns    map[string][]float64
}

// datedBaseline matches committed baseline files and nothing else:
// BENCH_2026-07-27.txt is a baseline, an ad-hoc snapshot such as
// BENCH_2026-07-27_pre.txt must not silently become the reference.
var datedBaseline = regexp.MustCompile(`^BENCH_\d{4}-\d{2}-\d{2}\.txt$`)

// procSuffix is the -GOMAXPROCS suffix go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	baselinePath := flag.String("baseline", "", "baseline BENCH_<date>.txt (default: newest committed one in -root)")
	freshPath := flag.String("fresh", "", "fresh `go test -bench` output to compare (required)")
	root := flag.String("root", ".", "repository root to scan for baselines")
	gate := flag.String("gate", "CobraStepExpander,GraphResolveWarm,GraphBuildRegular", "comma-separated benchmark names that fail the run on regression")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional regression of a gated benchmark's median ns/op")
	flag.Parse()

	if *freshPath == "" {
		fatal(fmt.Errorf("benchgate: -fresh is required (run go test -bench first, or use scripts/bench_gate.sh)"))
	}
	if *baselinePath == "" {
		p, err := latestBaseline(*root)
		if err != nil {
			fatal(err)
		}
		*baselinePath = p
	}

	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchgate: baseline %s (%s) vs fresh (%s); medians of ns/op\n",
		filepath.Base(*baselinePath), base.cpu, fresh.cpu)

	gated := make(map[string]bool)
	for _, name := range strings.Split(*gate, ",") {
		if name = strings.TrimSpace(name); name != "" {
			gated[name] = true
		}
	}

	failed := 0
	for _, name := range fresh.order {
		fm := median(fresh.ns[name])
		bs, ok := base.ns[name]
		if !ok {
			fmt.Printf("  %-28s %12.0f ns/op  (no baseline)\n", name, fm)
			continue
		}
		bm := median(bs)
		delta := fm/bm - 1
		mark := " "
		if gated[name] {
			mark = "*"
			if delta > *maxRegress {
				mark = "!"
				failed++
			}
		}
		fmt.Printf("%s %-28s %12.0f -> %10.0f ns/op  %+6.1f%%  (n=%d/%d)\n",
			mark, name, bm, fm, 100*delta, len(bs), len(fresh.ns[name]))
	}
	// A gate over a benchmark the fresh run never measured is a harness
	// bug, not a pass: fail loudly instead of green-lighting nothing.
	for name := range gated {
		if _, ok := fresh.ns[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchgate: gated benchmark %s missing from fresh results\n", name)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — %d gated benchmark(s) regressed more than %.0f%% (or went missing)\n",
			failed, 100**maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — gated benchmarks within %.0f%% of baseline\n", 100**maxRegress)
}

// latestBaseline returns the newest strictly-dated BENCH_<date>.txt in
// root. The date is the filename, so lexicographic order is
// chronological order.
func latestBaseline(root string) (string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return "", fmt.Errorf("benchgate: scan %s: %w", root, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && datedBaseline.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("benchgate: no BENCH_<date>.txt baseline in %s (run make bench-baseline)", root)
	}
	sort.Strings(names)
	return filepath.Join(root, names[len(names)-1]), nil
}

// load parses benchmark result lines ("BenchmarkName-N  iters  v ns/op
// ...") and the "cpu:" header out of go test output; every other line
// is ignored.
func load(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, fmt.Errorf("benchgate: %w", err)
	}
	defer f.Close()
	r := run{ns: make(map[string][]float64)}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			r.cpu = cpu
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return run{}, fmt.Errorf("benchgate: %s: bad ns/op in %q", path, line)
			}
			if _, seen := r.ns[name]; !seen {
				r.order = append(r.order, name)
			}
			r.ns[name] = append(r.ns[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("benchgate: read %s: %w", path, err)
	}
	if len(r.ns) == 0 {
		return run{}, fmt.Errorf("benchgate: %s has no benchmark results", path)
	}
	return r, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

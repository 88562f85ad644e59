// Command benchgate compares two `go test -bench` runs made on one host,
// the base commit's and the change's, and fails when a gated
// benchmark's median ns/op has regressed beyond the allowed fraction,
// or when its samples spread too widely to tell whether it has. scripts/bench_gate.sh
// builds both test binaries and runs them interleaved; benchgate only
// compares.
//
// Run from the repository root (the Makefile and CI use the wrapper):
//
//	./scripts/bench_gate.sh          # build, measure and compare
//	go run ./scripts/benchgate -baseline base.txt -fresh head.txt
//
// Both sides are standard benchmark output, one line per run, so every
// benchmark has one sample per run and the gate compares medians. Only
// the benchmarks named by -gate fail the run; the rest are reported for
// context. The committed BENCH_<date>.txt files record absolute numbers
// over time and are not a baseline: a run from another day, or another
// machine, measures the host as much as the code.
//
// A gated benchmark's spread is the half-width of an approximate 95%
// confidence interval for the relative change of its median: each
// side's standard error of the median is estimated from its
// interquartile range (1.2533 · IQR/1.349 / √n, over the median), and
// the spread is 1.96 times the root sum of squares of the two. It
// shrinks as samples accumulate, so a benchmark whose single runs
// scatter widely is settled by measuring it more often.
//
// Exit status: 0 when every gated benchmark is within the bound, 1 when
// one regressed or is missing from the fresh run, and 2 when the only
// failures are gated benchmarks whose spread exceeds the bound. The
// last line then names them ("benchgate: noisy: A,B") so the wrapper
// can measure them again.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
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

// verdict is the outcome of a comparison; its value is the exit status.
type verdict int

const (
	pass verdict = iota
	fail
	noisy
)

// procSuffix is the -GOMAXPROCS suffix go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	basePath := flag.String("baseline", "", "the base commit's `go test -bench` output (required)")
	freshPath := flag.String("fresh", "", "the change's `go test -bench` output, measured on the same host (required)")
	gate := flag.String("gate", "CobraStepExpander,GraphResolveWarm,GraphBuildRegular", "comma-separated benchmark names that fail the run on regression")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional regression of a gated benchmark's median ns/op, and allowed spread of that change")
	flag.Parse()

	if *basePath == "" || *freshPath == "" {
		fatal(fmt.Errorf("benchgate: -baseline and -fresh are required (use scripts/bench_gate.sh to measure both)"))
	}
	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fatal(err)
	}
	var gated []string
	for _, name := range strings.Split(*gate, ",") {
		if name = strings.TrimSpace(name); name != "" {
			gated = append(gated, name)
		}
	}
	os.Exit(int(compare(os.Stdout, base, fresh, gated, *maxRegress)))
}

// compare writes the comparison table to w and returns the verdict. A
// gated benchmark fails when its fresh median exceeds the base median
// by more than maxRegress, or when the fresh run lacks it; it is noisy
// when its spread exceeds maxRegress. A noisy benchmark is never
// passed, and never failed as a regression: its medians are not trusted
// until more samples settle them.
func compare(w io.Writer, base, fresh run, gated []string, maxRegress float64) verdict {
	isGated := make(map[string]bool)
	for _, name := range gated {
		isGated[name] = true
	}
	fmt.Fprintf(w, "benchgate: base (%s) vs fresh (%s); medians of ns/op, change ± its 95%% spread\n", base.cpu, fresh.cpu)
	failed := 0
	var unsettled []string
	for _, name := range fresh.order {
		fs := fresh.ns[name]
		bs, ok := base.ns[name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %12.0f ns/op  (not in base)\n", name, median(fs))
			continue
		}
		delta, sp := median(fs)/median(bs)-1, spread(bs, fs)
		mark := " "
		if isGated[name] {
			mark = "*"
			switch {
			case sp > maxRegress:
				mark = "?"
				unsettled = append(unsettled, name)
			case delta > maxRegress:
				mark = "!"
				failed++
			}
		}
		fmt.Fprintf(w, "%s %-28s %12.0f -> %10.0f ns/op  %+6.1f%% ± %4.1f%%  (n=%d/%d)\n",
			mark, name, median(bs), median(fs), 100*delta, 100*sp, len(bs), len(fs))
	}
	// A gate over a benchmark the fresh run never measured is a harness
	// bug, not a pass: fail loudly instead of green-lighting nothing.
	for _, name := range gated {
		if _, ok := fresh.ns[name]; !ok {
			fmt.Fprintf(w, "benchgate: gated benchmark %s missing from fresh results\n", name)
			failed++
		}
	}
	switch {
	case failed > 0:
		fmt.Fprintf(w, "benchgate: FAIL — %d gated benchmark(s) regressed more than %.0f%% (or went missing)\n", failed, 100*maxRegress)
		return fail
	case len(unsettled) > 0:
		fmt.Fprintf(w, "benchgate: noisy: %s\n", strings.Join(unsettled, ","))
		return noisy
	}
	fmt.Fprintf(w, "benchgate: OK — gated benchmarks within %.0f%% of base\n", 100*maxRegress)
	return pass
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
	r, err := parse(f)
	if err != nil {
		return run{}, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return r, nil
}

// parse is load's reader half.
func parse(rd io.Reader) (run, error) {
	r := run{ns: make(map[string][]float64)}
	sc := bufio.NewScanner(rd)
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
				return run{}, fmt.Errorf("bad ns/op in %q", line)
			}
			if _, seen := r.ns[name]; !seen {
				r.order = append(r.order, name)
			}
			r.ns[name] = append(r.ns[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, err
	}
	if len(r.ns) == 0 {
		return run{}, fmt.Errorf("no benchmark results")
	}
	return r, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// spread returns the half-width of an approximate 95% confidence
// interval for the relative change from the median of base to that of
// fresh (see the package comment).
func spread(base, fresh []float64) float64 {
	return 1.96 * math.Hypot(medianSE(base), medianSE(fresh))
}

// medianSE estimates the standard error of the median of xs, relative
// to the median, from the interquartile range (with five samples, the
// second-largest minus the second-smallest, so one outlier cannot
// widen it).
func medianSE(xs []float64) float64 {
	s := sorted(xs)
	q := len(s) / 4
	return 1.2533 * (s[len(s)-1-q] - s[q]) / 1.349 / math.Sqrt(float64(len(s))) / median(s)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Package sim provides the Monte Carlo experiment harness: a parallel
// trial runner with deterministic per-trial random streams, sweep
// helpers, and result tables rendered as aligned text, Markdown, or CSV.
// Every experiment of cobractl experiments and bench_test.go is built on
// this package.
package sim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TrialFunc runs one trial with its own random source and returns a
// measurement. Implementations must not share mutable state across
// trials, and must not retain src beyond the call: the runner reuses one
// Source per worker, reseeding it to stream i before trial i.
type TrialFunc func(trial int, src *rng.Source) (float64, error)

// WorkerFunc constructs the trial function of one worker goroutine. The
// runner calls it once per worker; the returned TrialFunc is then
// invoked serially by that worker, so it may own reusable state — a
// pooled core.Walk reset per trial, scratch buffers — without
// synchronization. Per-trial results must still depend only on (trial,
// src) so that scheduling cannot change measurements.
type WorkerFunc func() TrialFunc

// RunTrials executes fn for trials independent trials in parallel,
// seeding trial i with stream i of seed, and returns the measurements in
// trial order. The first error encountered (lowest trial index) is
// returned. Parallelism defaults to GOMAXPROCS.
func RunTrials(trials int, seed uint64, fn TrialFunc) ([]float64, error) {
	return RunTrialsContext(context.Background(), trials, seed, fn, nil)
}

// RunTrialsPooled is RunTrials with per-worker state reuse: newWorker is
// called once per worker goroutine and the returned TrialFunc handles
// that worker's share of trials. Simulations whose per-trial state is
// O(n) (walks, processes) use this to allocate that state once per
// worker instead of once per trial; determinism is unchanged because
// trial i still consumes exactly stream i of seed.
func RunTrialsPooled(trials int, seed uint64, newWorker WorkerFunc) ([]float64, error) {
	return RunTrialsPooledContext(context.Background(), trials, seed, newWorker, nil)
}

// RunTrialsPooledContext is RunTrialsPooled with cooperative cancellation
// and progress reporting (see RunTrialsContext for their semantics).
func RunTrialsPooledContext(ctx context.Context, trials int, seed uint64, newWorker WorkerFunc, onDone func(completed int)) ([]float64, error) {
	return runTrials(ctx, trials, seed, newWorker, onDone)
}

// RunTrialsContext is RunTrials with cooperative cancellation and
// progress reporting. Workers stop claiming new trials once ctx is done,
// and the context error is returned. If onDone is non-nil it is called
// after every finished trial with the total number of completed trials so
// far; it must be safe for concurrent use (the engine's progress counters
// are atomic). Trial dispatch uses a lock-free atomic counter so the hot
// path scales with worker count.
func RunTrialsContext(ctx context.Context, trials int, seed uint64, fn TrialFunc, onDone func(completed int)) ([]float64, error) {
	return runTrials(ctx, trials, seed, func() TrialFunc { return fn }, onDone)
}

// runTrials is the shared dispatch loop: each worker constructs its
// TrialFunc once, owns one reseedable Source, and claims trials off a
// lock-free counter. Trial i always runs with stream i of seed, so
// results are independent of worker count and scheduling.
func runTrials(ctx context.Context, trials int, seed uint64, newWorker WorkerFunc, onDone func(completed int)) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("sim: trials must be >= 1")
	}
	out := make([]float64, trials)
	errs := make([]error, trials)
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	var next, completed int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			src := rng.New(0)
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= trials {
					return
				}
				src.Seed(rng.Stream(seed, i))
				v, err := fn(i, src)
				out[i] = v
				errs[i] = err
				if onDone != nil {
					onDone(int(atomic.AddInt64(&completed, 1)))
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Point is one sweep point: an independent variable and the sample of
// measurements collected there.
type Point struct {
	X      float64
	Sample []float64
}

// Means extracts (xs, mean-ys) from sweep points.
func Means(points []Point) (xs, ys []float64) {
	xs = make([]float64, len(points))
	ys = make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		ys[i] = stats.Mean(p.Sample)
	}
	return xs, ys
}

// FitExponent fits mean(sample) = C * x^e over the sweep points,
// returning the scaling-law fit. This is how the grid, cycle, and
// lollipop experiments extract their headline exponents.
func FitExponent(points []Point) stats.PowerLawFit {
	xs, ys := Means(points)
	return stats.FitPowerLaw(xs, ys)
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("sim: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: each value is rendered with
// %v for strings and %.4g for floats.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			cells[i] = x
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4g", float64(x))
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// Fprint writes the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table,
// preceded by a bold title line when set.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no title). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(cell, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(cell)
		}
	}
	b.WriteByte('\n')
}

// SummaryCells formats a sample as the standard result cells used across
// experiment tables: mean, 95% CI half-width, and max.
func SummaryCells(sample []float64) (mean, ci, max string) {
	m, hw := stats.MeanCI(sample)
	return fmt.Sprintf("%.1f", m), fmt.Sprintf("±%.1f", hw), fmt.Sprintf("%.0f", stats.MaxFloat(sample))
}

// SortPointsByX sorts sweep points by their independent variable.
func SortPointsByX(points []Point) {
	sort.Slice(points, func(i, j int) bool { return points[i].X < points[j].X })
}

package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
)

// goldens pairs each output recorded under testdata — the stdout of the
// four standalone batch binaries that cover, experiments, run and graph
// replaced, captured before they were folded into cobractl (the
// experiments footer, a wall time, left out) — with the cobractl
// command line that must reproduce it. DATA stands for one
// graph-artifact directory shared by the cases that name it, in order.
var goldens = []struct {
	file string
	args []string
	// numeric compares only the mean, median and min/max lines: run
	// names its graph and process by spec where the old tool printed
	// the generated graph's name.
	numeric bool
	// daemon also runs the command against a cobrad, whose stdout must
	// equal the in-process run's.
	daemon bool
}{
	{file: "cover_grid.txt", args: []string{"cover", "-family", "grid:2", "-sizes", "8,16,32", "-trials", "10", "-seed", "1"}, daemon: true},
	{file: "cover_regular_csv.txt", args: []string{"cover", "-family", "regular:5", "-sizes", "64,128,256", "-trials", "12", "-seed", "7", "-format", "csv"}},
	{file: "cover_cycle_markdown.txt", args: []string{"cover", "-family", "cycle", "-sizes", "16,32,64", "-k", "3", "-trials", "8", "-seed", "3", "-format", "markdown"}},
	{file: "cover_lollipop.txt", args: []string{"cover", "-family", "lollipop", "-sizes", "16,24", "-k", "1", "-trials", "5", "-seed", "2"}},

	{file: "experiments_all.txt", args: []string{"experiments", "-seed", "1"}},
	{file: "experiments_e3_e14_markdown.txt", args: []string{"experiments", "-only", "E3,E14", "-markdown", "-seed", "1"}, daemon: true},
	{file: "experiments_list.txt", args: []string{"experiments", "-list"}},

	// The old tool seeded the graph and the trials with one -seed.
	{file: "run_cobra_grid.txt", numeric: true, daemon: true,
		args: []string{"run", "-process", "cobra", "-graph", "grid:2,33", "-param", "k=2", "-trials", "20", "-seed", "1", "-graph-seed", "1"}},
	// A biased walk whose controller never takes over is the simple
	// walk, draw for draw.
	{file: "run_rw_lollipop_hit.txt", numeric: true,
		args: []string{"run", "-process", "biased-walk", "-graph", "lollipop:32,32", "-param", "bias=epsilon", "-param", "epsilon=0", "-param", "target=63", "-trials", "10", "-seed", "1", "-graph-seed", "1"}},
	{file: "run_push_regular.txt", numeric: true,
		args: []string{"run", "-process", "push", "-graph", "regular:1024,5", "-trials", "20", "-seed", "1", "-graph-seed", "1"}},
	{file: "run_walt_regular_hit.txt", numeric: true,
		args: []string{"run", "-process", "walt", "-graph", "regular:1024,5", "-param", "pebbles=512", "-param", "target=7", "-trials", "5", "-seed", "1", "-graph-seed", "1"}},
	{file: "run_cobra_lollipop_hit.txt", numeric: true, daemon: true,
		args: []string{"run", "-process", "cobra", "-graph", "lollipop:16,16", "-param", "k=2", "-param", "target=31", "-trials", "12", "-seed", "4", "-graph-seed", "4"}},
	{file: "run_parallel_hypercube.txt", numeric: true,
		args: []string{"run", "-process", "parallel-walk", "-graph", "hypercube:8", "-param", "k=4", "-trials", "6", "-seed", "2", "-graph-seed", "2"}},

	// The old tool's graph seed defaulted to 1.
	{file: "graph_hypercube.txt", args: []string{"graph", "-graph", "hypercube:8", "-graph-seed", "1"}},
	{file: "graph_regular.txt", args: []string{"graph", "-graph", "regular:1024,5", "-graph-seed", "7"}},
	{file: "graph_powerlaw_stats.txt", args: []string{"graph", "-graph", "powerlaw:5000,2.5", "-graph-seed", "1", "-stats"}},
	{file: "graph_cycle.txt", args: []string{"graph", "-graph", "cycle:12", "-graph-seed", "1"}},
	{file: "graph_grid_dot.txt", args: []string{"graph", "-graph", "grid:2,5", "-graph-seed", "1", "-dot"}},
	{file: "graph_verify_build.txt", args: []string{"graph", "-graph", "regular:4096,5", "-graph-seed", "1", "-data-dir", "DATA", "-verify"}},
	{file: "graph_verify_disk.txt", args: []string{"graph", "-graph", "regular:4096,5", "-graph-seed", "1", "-data-dir", "DATA", "-verify"}},
}

// TestBatchGoldens runs every golden command line in-process, and the
// daemon cases again against an httptest cobrad: the outputs must match
// the recorded ones, and the daemon's stdout must equal the in-process
// run's byte for byte.
func TestBatchGoldens(t *testing.T) {
	t.Setenv("COBRAD_URL", "")
	dataDir := t.TempDir()
	eng := engine.New(engine.Options{Workers: 2})
	daemon := httptest.NewServer(service.New(eng).Handler())
	t.Cleanup(func() {
		daemon.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	})

	for _, g := range goldens {
		t.Run(strings.TrimSuffix(g.file, ".txt"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			args := make([]string, len(g.args))
			for i, a := range g.args {
				args[i] = strings.ReplaceAll(a, "DATA", dataDir)
			}
			got := runCobractl(t, args)
			if g.numeric {
				if gotLines, wantLines := summaryLines(got), summaryLines(string(want)); gotLines != wantLines {
					t.Errorf("cobractl %s summary:\n%s\nwant:\n%s", strings.Join(args, " "), gotLines, wantLines)
				}
			} else if got != string(want) {
				t.Errorf("cobractl %s:\n%s\nwant:\n%s", strings.Join(args, " "), got, want)
			}
			if g.daemon {
				remote := runCobractl(t, append([]string{"-server", daemon.URL}, args...))
				if remote != got {
					t.Errorf("against cobrad:\n%s\nin-process:\n%s", remote, got)
				}
			}
		})
	}
}

func runCobractl(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if code := cobractl(context.Background(), args, &out); code != 0 {
		t.Fatalf("cobractl %s: exit %d", strings.Join(args, " "), code)
	}
	return out.String()
}

// summaryLines keeps the mean, median and min/max lines of a run
// summary.
func summaryLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "mean ") || strings.HasPrefix(line, "median ") || strings.HasPrefix(line, "min/max ") {
			keep = append(keep, line)
		}
	}
	if len(keep) != 3 {
		return "malformed summary:\n" + out
	}
	return strings.Join(keep, "\n")
}

func TestCoverRejectsUnknownFormat(t *testing.T) {
	var out bytes.Buffer
	if code := cobractl(context.Background(), []string{"cover", "-format", "html"}, &out); code != 1 {
		t.Fatalf("cover -format html: exit %d, want 1", code)
	}
}

// TestCoverRefusesSizesBelowOne pins that a size below 1 is refused
// when the sweep is validated, before any point runs.
func TestCoverRefusesSizesBelowOne(t *testing.T) {
	t.Setenv("COBRAD_URL", "")
	for _, sizes := range []string{"-8", "-8,16", "0"} {
		err := cmdCover(context.Background(), "", []string{"-family", "cycle", "-sizes", sizes}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "sizes start at 1") {
			t.Errorf("cover -sizes %s: %v, want the size refused", sizes, err)
		}
	}
}

// TestBatchCommandsStopOnCancel holds the in-process batch commands to
// their context: canceled mid-run, cobractl returns promptly with an
// error instead of finishing the workload (minutes of trials here).
func TestBatchCommandsStopOnCancel(t *testing.T) {
	t.Setenv("COBRAD_URL", "")
	for _, args := range [][]string{
		{"run", "-process", "cobra", "-graph", "grid:2,64", "-param", "k=2", "-trials", "1000000"},
		{"cover", "-family", "grid:2", "-sizes", "64,64,64", "-trials", "1000000"},
	} {
		t.Run(args[0], func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			exit := make(chan int, 1)
			go func() { exit <- cobractl(ctx, args, io.Discard) }()
			select {
			case code := <-exit:
				if code != 1 {
					t.Fatalf("exit %d after cancel, want 1", code)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("still running 10s after its context was canceled")
			}
		})
	}
}

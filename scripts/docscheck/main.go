// Command docscheck lints the operator docs against the code, so the
// documentation cannot silently rot:
//
//   - every route registered in internal/service (service.Routes) must
//     appear verbatim in docs/API.md;
//   - every error-envelope code (service.ErrorCodes) must appear in
//     docs/API.md;
//   - every registered process (process.Names) must have a row in the
//     README's process table ("| `name` |");
//   - every metric family that an engine and a service sharing one
//     registry expose on /metrics must appear in docs/API.md, and every
//     cobrad_ or graphstore_ name in docs/API.md or README.md must be
//     one of those families (a histogram's _bucket, _count and _sum
//     series belong to their family);
//   - every name that points into the tree must exist: a cmd/<name>
//     directory, or an upper-case Markdown file (README.md, API.md) at
//     the path given, or at the root or under docs/ when no directory
//     is given. README.md, docs/*.md, the verify skill and every Go
//     file outside perfbench/ are checked; CHANGES.md and ROADMAP.md
//     record history and are not.
//
// Usage (from the repository root, as scripts/docs_check.sh does):
//
//	go run ./scripts/docscheck [repo-root]
//
// Exit status 0 when the docs are in sync, 1 with one line per missing
// item otherwise.
package main

import (
	"context"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs/metrics"
	"repro/internal/process"
	"repro/internal/service"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	api := mustRead(filepath.Join(root, "docs", "API.md"))
	readme := mustRead(filepath.Join(root, "README.md"))

	var failures []string
	for _, route := range service.Routes() {
		if !strings.Contains(api, route) {
			failures = append(failures,
				fmt.Sprintf("docs/API.md: missing registered route %q", route))
		}
	}
	for _, code := range service.ErrorCodes() {
		if !strings.Contains(api, "`"+code+"`") {
			failures = append(failures,
				fmt.Sprintf("docs/API.md: missing error code `%s`", code))
		}
	}
	for _, name := range process.Names() {
		if !strings.Contains(readme, "| `"+name+"`") {
			failures = append(failures,
				fmt.Sprintf("README.md: process table missing a row for `%s`", name))
		}
	}

	families, histograms := metricFamilies()
	failures = append(failures, metricNames(families, histograms, map[string]string{
		"docs/API.md": api,
		"README.md":   readme,
	})...)

	stale, err := staleNames(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	failures = append(failures, stale...)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "docscheck: "+f)
		}
		fmt.Fprintf(os.Stderr, "docscheck: FAIL (%d problems)\n", len(failures))
		os.Exit(1)
	}
	fmt.Printf("docscheck: OK — %d routes, %d error codes, %d processes, %d metric families documented; no stale names\n",
		len(service.Routes()), len(service.ErrorCodes()), len(process.Names()), len(families))
}

func mustRead(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	return string(data)
}

// memberless is a cluster backend with no members. The service reads
// only Nodes from it, when /metrics renders cobrad_cluster_nodes_alive,
// the one family a single-node daemon does not register.
type memberless struct{ cluster.Backend }

func (memberless) Nodes() ([]cluster.NodeInfo, error) { return nil, nil }

// metricFamilies builds an engine and a service that share one
// registry, as cobrad does, and returns the families its exposition
// declares with a # HELP line, and which of them are histograms.
func metricFamilies() (families, histograms map[string]bool) {
	reg := metrics.NewRegistry()
	eng := engine.New(engine.Options{Workers: 1, Registry: reg})
	// The engine runs no job, so its shutdown has nothing to fail on.
	defer func() { _ = eng.Shutdown(context.Background()) }()
	service.New(eng, service.WithRegistry(reg), service.WithCluster(memberless{}))
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: render metrics: %v\n", err)
		os.Exit(1)
	}
	families, histograms = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(exposition.String(), "\n") {
		switch f := strings.Fields(line); {
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
			families[f[2]] = true
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "histogram":
			histograms[f[2]] = true
		}
	}
	return families, histograms
}

// metricNames reports every family docs/API.md leaves out and every
// metric name a doc mentions that no family exposes.
func metricNames(families, histograms map[string]bool, docs map[string]string) []string {
	named := func(doc string) map[string]bool {
		names := map[string]bool{}
		for _, name := range metricRef.FindAllString(doc, -1) {
			for _, suffix := range []string{"_bucket", "_count", "_sum"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && histograms[base] {
					name = base
				}
			}
			names[name] = true
		}
		return names
	}
	var failures []string
	inAPI := named(docs["docs/API.md"])
	for _, family := range slices.Sorted(maps.Keys(families)) {
		if !inAPI[family] {
			failures = append(failures,
				fmt.Sprintf("docs/API.md: missing metric family `%s`", family))
		}
	}
	for _, doc := range slices.Sorted(maps.Keys(docs)) {
		for _, name := range slices.Sorted(maps.Keys(named(docs[doc]))) {
			if !families[name] {
				failures = append(failures,
					fmt.Sprintf("%s: names metric `%s`, which /metrics does not expose", doc, name))
			}
		}
	}
	return failures
}

var (
	metricRef = regexp.MustCompile(`\b(?:cobrad|graphstore)_[a-z0-9_]*[a-z0-9]`)
	cmdRef    = regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	mdRef     = regexp.MustCompile(`((?:[A-Za-z0-9_.-]+/)*)\b([A-Z][A-Z0-9_]*\.md)\b`)
)

// staleNames reports, one line per mention, every cmd/<name> directory
// and upper-case Markdown file that a checked file names but the tree
// does not hold.
func staleNames(root string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	files = append(files,
		filepath.Join(root, "README.md"),
		filepath.Join(root, ".claude/skills/verify/SKILL.md"))
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exists := func(parts ...string) bool {
		_, err := os.Stat(filepath.Join(append([]string{root}, parts...)...))
		return err == nil
	}
	var failures []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, file) // every checked file lies under root
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if !exists("cmd", m[1]) {
					failures = append(failures, fmt.Sprintf("%s:%d: names missing directory %s", rel, i+1, m[0]))
				}
			}
			for _, m := range mdRef.FindAllStringSubmatch(line, -1) {
				dir, name := m[1], m[2]
				if dir != "" && !exists(dir, name) || dir == "" && !exists(name) && !exists("docs", name) {
					failures = append(failures, fmt.Sprintf("%s:%d: names missing file %s", rel, i+1, m[0]))
				}
			}
		}
	}
	return failures, nil
}

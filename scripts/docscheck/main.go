// Command docscheck lints the operator docs against the code, so the
// documentation cannot silently rot:
//
//   - every route registered in internal/service (service.Routes) must
//     appear verbatim in docs/API.md;
//   - every error-envelope code (service.ErrorCodes) must appear in
//     docs/API.md;
//   - every registered process (process.Names) must have a row in the
//     README's process table ("| `name` |");
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
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

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
	fmt.Printf("docscheck: OK — %d routes, %d error codes, %d processes documented; no stale names\n",
		len(service.Routes()), len(service.ErrorCodes()), len(process.Names()))
}

func mustRead(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	return string(data)
}

var (
	cmdRef = regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	mdRef  = regexp.MustCompile(`((?:[A-Za-z0-9_.-]+/)*)\b([A-Z][A-Z0-9_]*\.md)\b`)
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

// Package cli provides the shared graph-specification parser and list
// parsing used by cobractl, cobrad's job specs and the sweep fan-out.
//
// Graph specifications are compact strings naming a family and its
// parameters, for example:
//
//	grid:2,33          the paper's [0,32]²
//	torus:2,16         16×16 torus
//	cycle:1024         cycle on 1024 vertices
//	path:100
//	complete:64
//	star:256
//	wheel:100
//	lollipop:32,32     clique of 32 plus path of 32
//	barbell:16,4
//	kary:2,8           binary tree of depth 8
//	hypercube:10       2^10 vertices
//	margulis:32        Margulis expander on 32²
//	circulant:512,1,2  strides {1,2}
//	regular:1024,5     random 5-regular (uses the graph seed)
//	gnp:500,0.02       Erdős–Rényi, connected
//	powerlaw:1000,2.5  exponent 2.5, degrees [2, √n]
//	rgg:1000,0.06      random geometric, connected
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ParseGraph builds the graph described by spec. Random families consume
// the seed. Every spec string yields a graph or an error, never a panic.
func ParseGraph(spec string, seed uint64) (g *graph.Graph, err error) {
	// The generators panic on out-of-range arguments, a precondition
	// for their in-program callers; a spec arrives from outside the
	// program (a flag, a submitted job), so report it as an error.
	defer func() {
		if p := recover(); p != nil {
			g, err = nil, fmt.Errorf("cli: graph spec %q: %v", spec, p)
		}
	}()
	name, argStr, found := strings.Cut(spec, ":")
	var args []string
	if found && argStr != "" {
		args = strings.Split(argStr, ",")
	}
	ints := func(want int) ([]int, error) {
		if len(args) != want {
			return nil, fmt.Errorf("cli: %s needs %d parameters, got %d", name, want, len(args))
		}
		out := make([]int, want)
		for i, a := range args {
			v, err := strconv.Atoi(strings.TrimSpace(a))
			if err != nil {
				return nil, fmt.Errorf("cli: %s parameter %q: %w", name, a, err)
			}
			out[i] = v
		}
		return out, nil
	}
	switch name {
	case "grid":
		p, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.Grid(p[0], p[1]), nil
	case "torus":
		p, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.Torus(p[0], p[1]), nil
	case "cycle":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Cycle(p[0]), nil
	case "path":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Path(p[0]), nil
	case "complete":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Complete(p[0]), nil
	case "star":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Star(p[0]), nil
	case "wheel":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Wheel(p[0]), nil
	case "lollipop":
		p, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.Lollipop(p[0], p[1]), nil
	case "barbell":
		p, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.Barbell(p[0], p[1]), nil
	case "kary":
		p, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.KAryTree(p[0], p[1]), nil
	case "hypercube":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Hypercube(p[0]), nil
	case "margulis":
		p, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.Margulis(p[0]), nil
	case "circulant":
		if len(args) < 2 {
			return nil, fmt.Errorf("cli: circulant needs n and at least one stride")
		}
		p := make([]int, len(args))
		for i, a := range args {
			v, err := strconv.Atoi(strings.TrimSpace(a))
			if err != nil {
				return nil, fmt.Errorf("cli: circulant parameter %q: %w", a, err)
			}
			p[i] = v
		}
		return graph.CirculantRegular(p[0], p[1:]), nil
	case "regular":
		p, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.RandomRegular(p[0], p[1], seed)
	case "gnp":
		if len(args) != 2 {
			return nil, fmt.Errorf("cli: gnp needs n and p")
		}
		n, err := strconv.Atoi(strings.TrimSpace(args[0]))
		if err != nil {
			return nil, err
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
		if err != nil {
			return nil, err
		}
		return graph.ErdosRenyi(n, prob, true, seed), nil
	case "powerlaw":
		if len(args) != 2 {
			return nil, fmt.Errorf("cli: powerlaw needs n and exponent")
		}
		n, err := strconv.Atoi(strings.TrimSpace(args[0]))
		if err != nil {
			return nil, err
		}
		exp, err := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
		if err != nil {
			return nil, err
		}
		maxDeg := int(math.Sqrt(float64(n)))
		if maxDeg < 3 {
			maxDeg = 3
		}
		return graph.PowerLaw(n, exp, 2, maxDeg, seed), nil
	case "rgg":
		if len(args) != 2 {
			return nil, fmt.Errorf("cli: rgg needs n and radius")
		}
		n, err := strconv.Atoi(strings.TrimSpace(args[0]))
		if err != nil {
			return nil, err
		}
		r, err := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
		if err != nil {
			return nil, err
		}
		return graph.RandomGeometric(n, r, true, seed), nil
	default:
		return nil, fmt.Errorf("cli: unknown graph family %q (see package cli docs for the spec grammar)", name)
	}
}

// Families lists the recognized family names, for usage messages.
func Families() []string {
	return []string{
		"grid", "torus", "cycle", "path", "complete", "star", "wheel",
		"lollipop", "barbell", "kary", "hypercube", "margulis",
		"circulant", "regular", "gnp", "powerlaw", "rgg",
	}
}

// FamilySpec interprets a family sweep spec — a graph spec with the
// size parameter omitted — for one size, returning the full graph spec.
// "grid:2" sweeps the side at dimension 2, "regular:5" sweeps n at
// degree 5, "lollipop" sweeps n with clique = path = n/2, and the
// single-parameter families ("cycle", "hypercube", ...) take the size
// directly. The engine's server-side sweep fan-out expands every
// family sweep through it. A size below 1 is refused; a size too small
// for its family fails when the graph spec is parsed.
func FamilySpec(family string, size int) (string, error) {
	if size < 1 {
		return "", fmt.Errorf("cli: family %q size %d: sizes start at 1", family, size)
	}
	switch {
	case family == "cycle", family == "path", family == "star",
		family == "complete", family == "hypercube", family == "margulis":
		return fmt.Sprintf("%s:%d", family, size), nil
	case family == "lollipop":
		return fmt.Sprintf("lollipop:%d,%d", size/2, size-size/2), nil
	case strings.HasPrefix(family, "grid:"):
		return fmt.Sprintf("grid:%s,%d", family[len("grid:"):], size), nil
	case strings.HasPrefix(family, "torus:"):
		return fmt.Sprintf("torus:%s,%d", family[len("torus:"):], size), nil
	case strings.HasPrefix(family, "kary:"):
		return fmt.Sprintf("kary:%s,%d", family[len("kary:"):], size), nil
	case strings.HasPrefix(family, "regular:"):
		return fmt.Sprintf("regular:%d,%s", size, family[len("regular:"):]), nil
	default:
		return "", fmt.Errorf("cli: unknown family sweep spec %q", family)
	}
}

// ParseSizes parses a comma-separated list of integers ("8,16,32"); the
// empty string is the empty list.
func ParseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("cli: bad size %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

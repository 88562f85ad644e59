package cli

import (
	"strings"
	"testing"
)

func TestParseGraphFamilies(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"grid:2,5", 25},
		{"torus:2,4", 16},
		{"cycle:12", 12},
		{"path:7", 7},
		{"complete:6", 6},
		{"star:9", 9},
		{"wheel:8", 8},
		{"lollipop:4,3", 7},
		{"barbell:3,2", 8},
		{"kary:2,3", 15},
		{"hypercube:4", 16},
		{"margulis:4", 16},
		{"circulant:10,1,2", 10},
		{"regular:20,3", 20},
		{"gnp:30,0.2", 30},
		{"powerlaw:50,2.5", 50},
		{"rgg:50,0.3", 50},
	}
	for _, c := range cases {
		g, err := ParseGraph(c.spec, 42)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n {
			t.Fatalf("%s: n=%d want %d", c.spec, g.N(), c.n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
	}
}

func TestParseGraphErrors(t *testing.T) {
	bad := []string{
		"",
		"nonsense:5",
		"grid:2",
		"grid:2,x",
		"cycle:",
		"circulant:10",
		"gnp:10",
		"gnp:x,0.5",
		"gnp:10,y",
		"powerlaw:10",
		"rgg:10",
	}
	for _, spec := range bad {
		if _, err := ParseGraph(spec, 1); err == nil {
			t.Fatalf("%q accepted", spec)
		}
	}
}

// TestParseGraphOutOfRange feeds every family arguments its generator
// refuses: each must come back as an error, not a panic, since a spec
// reaches ParseGraph from a flag or a submitted job.
func TestParseGraphOutOfRange(t *testing.T) {
	bad := map[string][]string{
		"grid":      {"grid:2,0", "grid:2,1", "grid:0,5", "grid:-1,4"},
		"torus":     {"torus:2,2", "torus:0,5", "torus:2,-3"},
		"cycle":     {"cycle:0", "cycle:2", "cycle:-4"},
		"path":      {"path:0", "path:-1"},
		"complete":  {"complete:1", "complete:0"},
		"star":      {"star:1", "star:0"},
		"wheel":     {"wheel:2", "wheel:3"},
		"lollipop":  {"lollipop:1,1", "lollipop:4,0"},
		"barbell":   {"barbell:1,1", "barbell:3,-1"},
		"kary":      {"kary:0,3", "kary:1,3", "kary:2,-1"},
		"hypercube": {"hypercube:0", "hypercube:26"},
		"margulis":  {"margulis:1", "margulis:0"},
		"circulant": {"circulant:0,1", "circulant:2,1", "circulant:10,5", "circulant:10,0"},
		"regular":   {"regular:0,3", "regular:5,3", "regular:4,4"},
		"gnp":       {"gnp:10,2", "gnp:1,0.5", "gnp:10,-0.1"},
		"powerlaw":  {"powerlaw:3,2.5", "powerlaw:100,1", "powerlaw:1,2.5"},
		"rgg":       {"rgg:10,0", "rgg:1,0.5", "rgg:10,-1"},
	}
	for _, family := range Families() {
		specs := bad[family]
		if len(specs) == 0 {
			t.Errorf("family %q has no out-of-range cases", family)
		}
		for _, spec := range specs {
			g, err := ParseGraph(spec, 1)
			if err == nil {
				t.Errorf("%q accepted: %v", spec, g)
			}
		}
	}
}

// TestFamilySpecOutOfRange is the sweep route to the same generators: a
// family expanded at a size too small for it must fail to parse, and a
// size below 1 is refused before any graph spec is formed.
func TestFamilySpecOutOfRange(t *testing.T) {
	for _, c := range []struct {
		family string
		size   int
	}{{"cycle", 2}, {"lollipop", 2}, {"grid:2", 1}, {"torus:2", 2}, {"regular:5", 3}, {"hypercube", 0}, {"cycle", -8}, {"grid:2", 0}} {
		spec, err := FamilySpec(c.family, c.size)
		if c.size < 1 {
			if err == nil {
				t.Errorf("FamilySpec(%q, %d) = %q, want an error", c.family, c.size, spec)
			}
			continue
		}
		if err != nil {
			t.Fatalf("FamilySpec(%q, %d): %v", c.family, c.size, err)
		}
		if _, err := ParseGraph(spec, 1); err == nil {
			t.Errorf("FamilySpec(%q, %d) = %q accepted", c.family, c.size, spec)
		}
	}
}

func TestParseGraphDeterministicRandom(t *testing.T) {
	a, err := ParseGraph("regular:30,4", 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseGraph("regular:30,4", 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 30; v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("same seed gave different random graphs")
			}
		}
	}
}

func TestFamiliesListed(t *testing.T) {
	fams := Families()
	if len(fams) < 15 {
		t.Fatalf("family list too short: %v", fams)
	}
	for _, f := range fams {
		if strings.TrimSpace(f) == "" {
			t.Fatal("empty family name")
		}
	}
}

func TestParseSizes(t *testing.T) {
	sizes, err := ParseSizes("8, 16,32")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 8 || sizes[2] != 32 {
		t.Fatalf("sizes = %v", sizes)
	}
	if _, err := ParseSizes("8,x"); err == nil {
		t.Fatal("bad size accepted")
	}
	if sizes, err := ParseSizes(""); err != nil || sizes != nil {
		t.Fatalf(`ParseSizes("") = %v, %v; want the empty list`, sizes, err)
	}
}

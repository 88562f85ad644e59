package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

// validateOrFail validates structural invariants and fails the test on
// error. Every generator test goes through this.
func validateOrFail(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPath(t *testing.T) {
	g := Path(5)
	validateOrFail(t, g)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("path(5): n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 1 || g.Degree(4) != 1 || g.Degree(2) != 2 {
		t.Fatal("path degrees wrong")
	}
	if !IsConnected(g) {
		t.Fatal("path not connected")
	}
}

func TestPathSingleVertex(t *testing.T) {
	g := Path(1)
	validateOrFail(t, g)
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("path(1): n=%d m=%d", g.N(), g.M())
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(7)
	validateOrFail(t, g)
	if g.N() != 7 || g.M() != 7 {
		t.Fatalf("cycle(7): n=%d m=%d", g.N(), g.M())
	}
	reg, d := g.IsRegular()
	if !reg || d != 2 {
		t.Fatalf("cycle not 2-regular: %v %d", reg, d)
	}
	if Diameter(g) != 3 {
		t.Fatalf("cycle(7) diameter = %d, want 3", Diameter(g))
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	validateOrFail(t, g)
	if g.M() != 15 {
		t.Fatalf("K6 edges = %d, want 15", g.M())
	}
	reg, d := g.IsRegular()
	if !reg || d != 5 {
		t.Fatal("K6 not 5-regular")
	}
	if Diameter(g) != 1 {
		t.Fatal("K6 diameter != 1")
	}
}

func TestStar(t *testing.T) {
	g := Star(10)
	validateOrFail(t, g)
	if g.M() != 9 || g.Degree(0) != 9 {
		t.Fatal("star shape wrong")
	}
	for v := int32(1); v < 10; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf %d degree %d", v, g.Degree(v))
		}
	}
	if Diameter(g) != 2 {
		t.Fatal("star diameter != 2")
	}
}

func TestWheel(t *testing.T) {
	g := Wheel(8)
	validateOrFail(t, g)
	if g.N() != 8 || g.M() != 14 {
		t.Fatalf("wheel(8): n=%d m=%d, want n=8 m=14", g.N(), g.M())
	}
	if g.Degree(0) != 7 {
		t.Fatal("wheel hub degree wrong")
	}
	for v := int32(1); v < 8; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("wheel rim vertex %d degree %d, want 3", v, g.Degree(v))
		}
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(10, 15)
	validateOrFail(t, g)
	if g.N() != 25 {
		t.Fatalf("lollipop n=%d", g.N())
	}
	wantM := 10*9/2 + 15
	if g.M() != wantM {
		t.Fatalf("lollipop m=%d want %d", g.M(), wantM)
	}
	if !IsConnected(g) {
		t.Fatal("lollipop disconnected")
	}
	// The far end of the path has degree 1.
	if g.Degree(24) != 1 {
		t.Fatal("lollipop tail degree wrong")
	}
	// Clique vertex 0 carries the path attachment.
	if g.Degree(0) != 10 {
		t.Fatalf("lollipop junction degree = %d, want 10", g.Degree(0))
	}
	if d := Diameter(g); d != 16 {
		t.Fatalf("lollipop diameter = %d, want 16", d)
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(5, 3)
	validateOrFail(t, g)
	if g.N() != 13 {
		t.Fatalf("barbell n=%d", g.N())
	}
	wantM := 2*(5*4/2) + 4
	if g.M() != wantM {
		t.Fatalf("barbell m=%d want %d", g.M(), wantM)
	}
	if !IsConnected(g) {
		t.Fatal("barbell disconnected")
	}
}

func TestBarbellZeroPath(t *testing.T) {
	g := Barbell(4, 0)
	validateOrFail(t, g)
	if g.N() != 8 || g.M() != 2*6+1 {
		t.Fatalf("barbell(4,0): n=%d m=%d", g.N(), g.M())
	}
	if !IsConnected(g) {
		t.Fatal("barbell(4,0) disconnected")
	}
}

func TestKAryTree(t *testing.T) {
	for _, tc := range []struct{ k, depth, n int }{
		{2, 0, 1}, {2, 3, 15}, {3, 2, 13}, {4, 2, 21},
	} {
		g := KAryTree(tc.k, tc.depth)
		validateOrFail(t, g)
		if g.N() != tc.n {
			t.Fatalf("kary(%d,%d): n=%d want %d", tc.k, tc.depth, g.N(), tc.n)
		}
		if g.M() != tc.n-1 {
			t.Fatalf("kary tree not a tree: m=%d", g.M())
		}
		if !IsConnected(g) {
			t.Fatal("tree disconnected")
		}
		if tc.depth > 0 {
			if d := Diameter(g); d != 2*tc.depth {
				t.Fatalf("kary(%d,%d) diameter = %d, want %d", tc.k, tc.depth, d, 2*tc.depth)
			}
		}
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid(2, 4)
	validateOrFail(t, g)
	if g.N() != 16 {
		t.Fatalf("grid n=%d", g.N())
	}
	if g.M() != 2*4*3 {
		t.Fatalf("grid m=%d want 24", g.M())
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if g.Degree(GridVertex(4, []int{0, 0})) != 2 {
		t.Fatal("corner degree wrong")
	}
	if g.Degree(GridVertex(4, []int{1, 0})) != 3 {
		t.Fatal("boundary degree wrong")
	}
	if g.Degree(GridVertex(4, []int{1, 1})) != 4 {
		t.Fatal("interior degree wrong")
	}
	if d := Diameter(g); d != 6 {
		t.Fatalf("grid(2,4) diameter = %d, want 6", d)
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid(3, 3)
	validateOrFail(t, g)
	if g.N() != 27 {
		t.Fatalf("grid3 n=%d", g.N())
	}
	if g.M() != 3*9*2 {
		t.Fatalf("grid3 m=%d want 54", g.M())
	}
	center := GridVertex(3, []int{1, 1, 1})
	if g.Degree(center) != 6 {
		t.Fatal("grid3 center degree wrong")
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		d := int(raw%3) + 1
		side := int(raw/3%5) + 2
		n := 1
		for i := 0; i < d; i++ {
			n *= side
		}
		v := int32(int(raw) % n)
		return GridVertex(side, GridCoord(d, side, v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridDistanceMatchesBFS(t *testing.T) {
	g := Grid(2, 5)
	src := GridVertex(5, []int{1, 2})
	dist := BFS(g, src)
	for v := int32(0); v < int32(g.N()); v++ {
		if int(dist[v]) != GridDistance(2, 5, src, v) {
			t.Fatalf("grid distance mismatch at %d: BFS=%d manhattan=%d",
				v, dist[v], GridDistance(2, 5, src, v))
		}
	}
}

func TestTorus(t *testing.T) {
	g := Torus(2, 5)
	validateOrFail(t, g)
	if g.N() != 25 {
		t.Fatalf("torus n=%d", g.N())
	}
	reg, d := g.IsRegular()
	if !reg || d != 4 {
		t.Fatalf("torus(2,5) not 4-regular: %v %d", reg, d)
	}
	if g.M() != 50 {
		t.Fatalf("torus m=%d want 50", g.M())
	}
}

func TestTorus1D(t *testing.T) {
	g := Torus(1, 9)
	validateOrFail(t, g)
	reg, d := g.IsRegular()
	if !reg || d != 2 {
		t.Fatal("torus(1,9) should be a cycle")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	validateOrFail(t, g)
	if g.N() != 16 {
		t.Fatalf("Q4 n=%d", g.N())
	}
	reg, d := g.IsRegular()
	if !reg || d != 4 {
		t.Fatal("Q4 not 4-regular")
	}
	if Diameter(g) != 4 {
		t.Fatal("Q4 diameter != 4")
	}
}

func TestMargulis(t *testing.T) {
	g := Margulis(8)
	validateOrFail(t, g)
	if g.N() != 64 {
		t.Fatalf("margulis n=%d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("margulis disconnected")
	}
	if g.MaxDegree() > 8 {
		t.Fatalf("margulis max degree %d > 8", g.MaxDegree())
	}
	// An expander has logarithmic-ish diameter; sanity bound.
	if d := Diameter(g); d > 10 {
		t.Fatalf("margulis(8) diameter %d suspiciously large", d)
	}
}

func TestCirculant(t *testing.T) {
	g := CirculantRegular(12, []int{1, 2})
	validateOrFail(t, g)
	reg, d := g.IsRegular()
	if !reg || d != 4 {
		t.Fatalf("circulant not 4-regular: %v %d", reg, d)
	}
	if !IsConnected(g) {
		t.Fatal("circulant disconnected")
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {100, 5}, {64, 8}} {
		g, err := RandomRegular(tc.n, tc.d, 42)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		validateOrFail(t, g)
		reg, d := g.IsRegular()
		if !reg || int(d) != tc.d {
			t.Fatalf("RandomRegular(%d,%d) not regular: %v %d", tc.n, tc.d, reg, d)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a := MustRandomRegular(40, 3, 7)
	b := MustRandomRegular(40, 3, 7)
	for v := int32(0); v < 40; v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatal("same seed produced different graphs")
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("same seed produced different graphs")
			}
		}
	}
}

func TestRandomRegularOddProduct(t *testing.T) {
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Fatal("RandomRegular(5,3) should fail: odd stub count")
	}
}

func TestRandomRegularConnectedWhp(t *testing.T) {
	// Random 3-regular graphs are connected whp; check several seeds.
	connected := 0
	for seed := uint64(0); seed < 10; seed++ {
		g := MustRandomRegular(60, 3, seed)
		if IsConnected(g) {
			connected++
		}
	}
	if connected < 9 {
		t.Fatalf("only %d/10 random 3-regular graphs connected", connected)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(200, 0.05, true, 9)
	validateOrFail(t, g)
	if !IsConnected(g) {
		t.Fatal("connected ER graph disconnected")
	}
	// Expected edges ~ p*n(n-1)/2 = 995; allow wide tolerance.
	if g.M() < 700 || g.M() > 1300 {
		t.Fatalf("gnp edge count %d far from expectation 995", g.M())
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	empty := ErdosRenyi(10, 0, false, 1)
	if empty.M() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	full := ErdosRenyi(10, 1, false, 1)
	if full.M() != 45 {
		t.Fatalf("G(10,1) m=%d want 45", full.M())
	}
}

func TestEdgeFromIndexCoversAllPairs(t *testing.T) {
	n := 9
	seen := map[[2]int32]bool{}
	total := int64(n * (n - 1) / 2)
	c := pairCursor{n: int64(n)}
	for i := int64(0); i < total; i++ {
		u, v := c.at(i)
		if u >= v || v >= int32(n) {
			t.Fatalf("pair %d = (%d,%d) invalid", i, u, v)
		}
		key := [2]int32{u, v}
		if seen[key] {
			t.Fatalf("pair cursor repeated (%d,%d)", u, v)
		}
		seen[key] = true
	}
	if int64(len(seen)) != total {
		t.Fatal("pair cursor did not enumerate all pairs")
	}
}

// TestPairCursorMatchesRowOrder pins the cursor against the plain
// row-order enumeration at every index, both walking every index and
// skipping ahead by varying strides from fresh cursors.
func TestPairCursorMatchesRowOrder(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16} {
		var want [][2]int32
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				want = append(want, [2]int32{int32(u), int32(v)})
			}
		}
		for stride := 1; stride <= 5; stride++ {
			for first := 0; first < stride; first++ {
				c := pairCursor{n: int64(n)}
				for i := first; i < len(want); i += stride {
					if u, v := c.at(int64(i)); [2]int32{u, v} != want[i] {
						t.Fatalf("n=%d stride=%d: index %d gave (%d,%d), want %v", n, stride, i, u, v, want[i])
					}
				}
			}
		}
	}
}

func TestPowerLaw(t *testing.T) {
	g := PowerLaw(300, 2.5, 2, 30, 13)
	validateOrFail(t, g)
	if !IsConnected(g) {
		t.Fatal("powerlaw graph disconnected after connect")
	}
	if g.MaxDegree() > 40 {
		t.Fatalf("powerlaw max degree %d exceeds truncation slack", g.MaxDegree())
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(300, 0.12, true, 4)
	validateOrFail(t, g)
	if !IsConnected(g) {
		t.Fatal("rgg disconnected after connect")
	}
	if g.M() == 0 {
		t.Fatal("rgg has no edges")
	}
}

func TestFromDegreeSequence(t *testing.T) {
	degs := []int{3, 3, 2, 2, 2, 2}
	g, err := FromDegreeSequence(degs, 5)
	if err != nil {
		t.Fatal(err)
	}
	validateOrFail(t, g)
	for v := int32(0); v < int32(len(degs)); v++ {
		if int(g.Degree(v)) > degs[v] {
			t.Fatalf("vertex %d degree %d exceeds requested %d", v, g.Degree(v), degs[v])
		}
	}
}

func TestHandshakeLemmaProperty(t *testing.T) {
	// Sum of degrees equals twice the edge count for every generator.
	graphs := []*Graph{
		Path(9), Cycle(12), Complete(7), Star(11), Wheel(9),
		Lollipop(6, 6), Barbell(4, 2), KAryTree(3, 3), Grid(2, 5),
		Torus(2, 4), Hypercube(5), Margulis(6),
		MustRandomRegular(30, 4, 3), ErdosRenyi(50, 0.1, false, 2),
	}
	for _, g := range graphs {
		var sum int64
		for v := int32(0); v < int32(g.N()); v++ {
			sum += int64(g.Degree(v))
		}
		if sum != 2*int64(g.M()) {
			t.Fatalf("%s: degree sum %d != 2m %d", g.Name(), sum, 2*g.M())
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := Cycle(6)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 5) {
		t.Fatal("cycle missing edges")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("cycle has chord")
	}
}

func TestVolume(t *testing.T) {
	g := Star(5)
	if got := g.Volume([]int32{0}); got != 4 {
		t.Fatalf("hub volume = %d", got)
	}
	if got := g.Volume([]int32{1, 2}); got != 2 {
		t.Fatalf("leaf volume = %d", got)
	}
}

// TestBuilderRejectsDuplicates also pins the error: with several
// parallel edges, the lexicographically smallest is named, whatever
// order the edges were added in.
func TestBuilderRejectsDuplicates(t *testing.T) {
	b := NewBuilder(8, "dup")
	for _, e := range [][2]int32{{6, 7}, {3, 4}, {7, 6}, {5, 2}, {4, 3}, {0, 1}, {2, 5}, {1, 2}} {
		b.AddEdge(e[0], e[1])
	}
	_, err := b.Build()
	if err == nil {
		t.Fatal("duplicate edge not rejected")
	}
	if !strings.Contains(err.Error(), "duplicate edge 2-5") {
		t.Fatalf("Build error = %v, want duplicate edge 2-5", err)
	}
}

func TestBuilderLooseDropsDuplicates(t *testing.T) {
	b := NewBuilder(3, "loose")
	b.SetLoose(true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("loose build m=%d want 1", g.M())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AddEdge did not panic")
		}
	}()
	NewBuilder(3, "bad").AddEdge(0, 3)
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, "square", [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	validateOrFail(t, g)
	reg, d := g.IsRegular()
	if !reg || d != 2 {
		t.Fatal("square not 2-regular")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	// Construct a deliberately broken graph by hand.
	g := &Graph{
		offsets: []int32{0, 1, 1},
		adj:     []int32{1},
		name:    "broken",
	}
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric graph passed validation")
	}
}

// TestBytesCountsBuiltTables pins Graph.Bytes: the CSR arrays, plus
// each padded adjacency table once it has been built.
func TestBytesCountsBuiltTables(t *testing.T) {
	g := Cycle(100) // 200 adjacency entries, padded to 256
	csr := int64(4 * (101 + 200))
	if got := g.Bytes(); got != csr {
		t.Fatalf("fresh graph: Bytes = %d, want the CSR's %d", got, csr)
	}
	g.AdjPow2Narrow()
	if got := g.Bytes(); got != csr+2*256 {
		t.Fatalf("with the uint16 table: Bytes = %d, want %d", got, csr+2*256)
	}
	g.AdjPow2()
	if got := g.Bytes(); got != csr+2*256+4*256 {
		t.Fatalf("with both tables: Bytes = %d, want %d", got, csr+2*256+4*256)
	}
}

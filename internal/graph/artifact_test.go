package graph

import (
	"encoding/binary"
	"strings"
	"testing"
)

// roundTrip encodes g and decodes the bytes, failing the test on error.
func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	data := EncodeBinary(g)
	if err := VerifyBinary(data); err != nil {
		t.Fatalf("VerifyBinary(%s): %v", g, err)
	}
	out, err := DecodeBinary(data)
	if err != nil {
		t.Fatalf("DecodeBinary(%s): %v", g, err)
	}
	return out
}

func TestArtifactRoundTrip(t *testing.T) {
	rr, err := RandomRegular(256, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{
		Cycle(12),
		Grid(2, 9),
		Star(17),
		Hypercube(6),
		rr,
		PowerLaw(300, 2.5, 2, 50, 7),
	}
	for _, g := range graphs {
		out := roundTrip(t, g)
		if out.Name() != g.Name() {
			t.Errorf("name: got %q, want %q", out.Name(), g.Name())
		}
		if out.N() != g.N() || out.M() != g.M() {
			t.Errorf("%s: decoded n=%d m=%d, want n=%d m=%d", g.Name(), out.N(), out.M(), g.N(), g.M())
		}
		for v := int32(0); v < int32(g.N()); v++ {
			a, b := g.Neighbors(v), out.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("%s: vertex %d degree %d != %d", g.Name(), v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: vertex %d neighbor %d: %d != %d", g.Name(), v, i, a[i], b[i])
				}
			}
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: decoded graph invalid: %v", g.Name(), err)
		}
	}
}

// TestArtifactMetadataRoundTrip pins that the cached degree metadata and
// the lazily built tables survive the round trip without recomputation.
func TestArtifactMetadataRoundTrip(t *testing.T) {
	reg, err := RandomRegular(128, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	irr := Star(50)

	for _, tc := range []struct {
		g       *Graph
		regular bool
		deg     int32
		pow2    bool
	}{
		{reg, true, 4, true},
		{irr, false, 0, false},
	} {
		out := roundTrip(t, tc.g)
		if !out.metaDone {
			t.Fatalf("%s: decoded graph lost metaDone", tc.g.Name())
		}
		gotReg, gotDeg := out.IsRegular()
		if gotReg != tc.regular || gotDeg != tc.deg {
			t.Errorf("%s: IsRegular = (%v, %d), want (%v, %d)", tc.g.Name(), gotReg, gotDeg, tc.regular, tc.deg)
		}
		if out.DegreeIsPow2() != tc.pow2 {
			t.Errorf("%s: DegreeIsPow2 = %v, want %v", tc.g.Name(), out.DegreeIsPow2(), tc.pow2)
		}
		// The narrow table was embedded in the artifact (both graphs fit
		// 16-bit ids), so it must match a freshly built one exactly.
		want := tc.g.AdjPow2Narrow()
		got := out.AdjPow2Narrow()
		if len(got) != len(want) {
			t.Fatalf("%s: narrow length %d, want %d", tc.g.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: narrow[%d] = %d, want %d", tc.g.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestArtifactEmptyGraph(t *testing.T) {
	g := &Graph{offsets: []int32{0}, name: "empty"}
	out := roundTrip(t, g)
	if out.N() != 0 || out.M() != 0 || out.Name() != "empty" {
		t.Fatalf("empty graph round trip: got n=%d m=%d name=%q", out.N(), out.M(), out.Name())
	}
}

func TestArtifactCorruption(t *testing.T) {
	data := EncodeBinary(Cycle(32))

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 3, artifactHeaderSize - 1, artifactHeaderSize + 5, len(data) - 1} {
			if err := VerifyBinary(data[:cut]); err == nil {
				t.Errorf("truncation to %d bytes not detected", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 'X'
		if err := VerifyBinary(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("bad magic not detected: %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[4] = 99
		if err := VerifyBinary(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("bad version not detected: %v", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 1
		if err := VerifyBinary(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("payload corruption not detected: %v", err)
		}
	})
}

func TestBinaryDigestStable(t *testing.T) {
	a, err := BinaryDigest(EncodeBinary(Cycle(16)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BinaryDigest(EncodeBinary(Cycle(16)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("digest not deterministic: %s vs %s", a, b)
	}
	c, err := BinaryDigest(EncodeBinary(Cycle(17)))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different graphs share a digest")
	}
}

// metadataMutation is a copy of an artifact whose header degree
// metadata or narrow table disagrees with the CSR it carries. The
// checksum is left stale: DecodeBinary does not check it.
type metadataMutation struct {
	name string
	data []byte
}

func metadataMutations(data []byte) []metadataMutation {
	h, err := parseArtifactHeader(data)
	if err != nil {
		panic(err)
	}
	var out []metadataMutation
	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), data...)
		f(b)
		out = append(out, metadataMutation{name, b})
	}
	mutate("regular flag flipped", func(b []byte) { b[24] ^= byte(artifactFlagRegular) })
	mutate("pow2 flag flipped", func(b []byte) { b[24] ^= byte(artifactFlagDegPow2) })
	mutate("regDeg off by one", func(b []byte) { b[28]++ })
	if h.flags&artifactFlagNarrow != 0 && h.adjLen > 0 {
		narrowOff := artifactHeaderSize + pad8(h.nameLen) + pad8((h.n+1)*4) + pad8(h.adjLen*4)
		mutate("narrow entry changed", func(b []byte) { b[narrowOff] ^= 1 })
		if pow2ceil(h.adjLen) > h.adjLen {
			mutate("narrow padding set", func(b []byte) { b[len(b)-1] = 1 })
		}
	}
	return out
}

// artifactSeeds are regular with a power-of-two degree, regular with
// an odd degree, and irregular.
func artifactSeeds() []*Graph {
	return []*Graph{Cycle(12), MustRandomRegular(64, 3, 5), Star(9)}
}

func TestArtifactRejectsMetadataMismatch(t *testing.T) {
	for _, g := range artifactSeeds() {
		for _, m := range metadataMutations(EncodeBinary(g)) {
			if _, err := DecodeBinary(m.data); err == nil {
				t.Errorf("%s: %s accepted", g.Name(), m.name)
			}
		}
	}

	// Past 65536 vertices uint16(adj[i]) truncates ids, so a narrow
	// table that matches adj entry by entry still names wrong vertices.
	wide := Cycle(1<<16 + 1)
	data := EncodeBinary(wide)
	data[24] |= byte(artifactFlagNarrow)
	narrow := make([]byte, 2*pow2ceil(len(wide.Adj())))
	for i, v := range wide.Adj() {
		binary.LittleEndian.PutUint16(narrow[2*i:], uint16(v))
	}
	if _, err := DecodeBinary(append(data, narrow...)); err == nil {
		t.Errorf("%s: narrow table accepted", wide.Name())
	}
}

// FuzzDecodeBinary feeds DecodeBinary arbitrary bytes. It must never
// panic, and any graph it accepts must carry exactly the degree
// metadata and narrow table that its own offsets and adjacency imply.
// The seed corpus (three families plus header mutations) runs under
// plain go test.
func FuzzDecodeBinary(f *testing.F) {
	for _, g := range artifactSeeds() {
		data := EncodeBinary(g)
		f.Add(data)
		for _, m := range metadataMutations(data) {
			f.Add(m.data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data)
		if err != nil {
			return
		}
		ref := &Graph{
			offsets: append([]int32(nil), g.Offsets()...),
			adj:     append([]int32(nil), g.Adj()...),
		}
		ref.finalize()
		gotReg, gotDeg := g.IsRegular()
		wantReg, wantDeg := ref.IsRegular()
		if gotReg != wantReg || gotDeg != wantDeg {
			t.Fatalf("IsRegular = (%v, %d), CSR implies (%v, %d)", gotReg, gotDeg, wantReg, wantDeg)
		}
		if g.DegreeIsPow2() != ref.DegreeIsPow2() {
			t.Fatalf("DegreeIsPow2 = %v, CSR implies %v", g.DegreeIsPow2(), ref.DegreeIsPow2())
		}
		got, want := g.AdjPow2Narrow(), ref.AdjPow2Narrow()
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("narrow table length %d (nil %v), CSR implies %d (nil %v)", len(got), got == nil, len(want), want == nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("narrow[%d] = %d, CSR implies %d", i, got[i], want[i])
			}
		}
	})
}

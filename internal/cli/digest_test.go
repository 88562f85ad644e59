package cli

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestParseGraphDigestGolden pins every family's exact CSR bytes: the
// artifact digest of each spec at two sizes and two seeds. Any change
// to a generator, to the RNG draws it makes, or to how Build orders
// neighbour lists and drops duplicates moves a digest. The table covers
// the strict builders, the loose ones (margulis, gnp, powerlaw and rgg,
// whose duplicates and self-loops Build drops), the large regular build
// the expander sweeps run, and a heavy-repair regular case (d = n/4).
// Deterministic families must not depend on the seed, so both seeds
// share one digest there.
func TestParseGraphDigestGolden(t *testing.T) {
	golden := []struct {
		spec            string
		seed1, seed9002 string // digest prefixes
	}{
		{"grid:2,5", "a963723d927684b8", "a963723d927684b8"},
		{"grid:3,12", "90609f9e3a8dbd9a", "90609f9e3a8dbd9a"},
		{"torus:2,4", "47fb241795f0de35", "47fb241795f0de35"},
		{"torus:3,10", "66bd8cad4b851466", "66bd8cad4b851466"},
		{"cycle:12", "39d578111cb96f76", "39d578111cb96f76"},
		{"cycle:1000", "d889d4ee025a19f8", "d889d4ee025a19f8"},
		{"path:7", "3513153bb2822594", "3513153bb2822594"},
		{"path:1000", "500f87dded6d3732", "500f87dded6d3732"},
		{"complete:6", "fa4a0ba5ed17312e", "fa4a0ba5ed17312e"},
		{"complete:64", "20dbdf3addd399cb", "20dbdf3addd399cb"},
		{"star:9", "b3b3a58f987d00e7", "b3b3a58f987d00e7"},
		{"star:500", "897fd73fc5beee7e", "897fd73fc5beee7e"},
		{"wheel:8", "145e9b379eff1b99", "145e9b379eff1b99"},
		{"wheel:500", "838ad49ef405d017", "838ad49ef405d017"},
		{"lollipop:4,3", "5eda174a1a4a4a5d", "5eda174a1a4a4a5d"},
		{"lollipop:32,32", "2be9d182e5235fae", "2be9d182e5235fae"},
		{"barbell:3,2", "1a63b1fc8c186985", "1a63b1fc8c186985"},
		{"barbell:16,4", "aef7b9ea14624f1d", "aef7b9ea14624f1d"},
		{"kary:2,3", "5883d6de70ce3363", "5883d6de70ce3363"},
		{"kary:3,6", "04026455a071abaf", "04026455a071abaf"},
		{"hypercube:4", "1400151ce810f768", "1400151ce810f768"},
		{"hypercube:10", "8b0229fe944f78fa", "8b0229fe944f78fa"},
		{"margulis:4", "d07923da979e2aa9", "d07923da979e2aa9"},
		{"margulis:32", "0e2ce602c23d08d7", "0e2ce602c23d08d7"},
		{"circulant:10,1,2", "f655adb8bdcabdc3", "f655adb8bdcabdc3"},
		{"circulant:512,1,2,5", "706d95cb6b5dbcbf", "706d95cb6b5dbcbf"},
		{"regular:20,3", "c225fcc99b71489a", "baadd6055b79535c"},
		{"regular:16384,5", "395cd3c7cbfb2c6a", "0abc94b539407207"},
		{"regular:65536,5", "e6d6c2b5798db704", "576189f2ee1881ff"},
		{"regular:400,100", "1223f61ba9121d70", "8a4da979c64f5512"},
		{"gnp:30,0.2", "48ba7fd27396813c", "48d13257dae7f350"},
		{"gnp:2000,0.005", "9ef28b6d2ec80d99", "8699bd540a2cbf52"},
		{"powerlaw:50,2.5", "71c8c7d950e50eef", "4b3d41429acc8416"},
		{"powerlaw:5000,2.2", "8ac48b2be7900eff", "4f51dc6fa8775573"},
		{"rgg:50,0.3", "6421fce99aa1399a", "d872e210633e272d"},
		{"rgg:2000,0.05", "ef408a4c5f3502bd", "76d596b9bc3111dd"},
	}
	covered := make(map[string]int)
	for _, tc := range golden {
		family, _, _ := strings.Cut(tc.spec, ":")
		covered[family]++
		for _, want := range []struct {
			seed   uint64
			digest string
		}{{1, tc.seed1}, {9002, tc.seed9002}} {
			g, err := ParseGraph(tc.spec, want.seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.spec, want.seed, err)
			}
			got, err := graph.BinaryDigest(graph.EncodeBinary(g))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.spec, want.seed, err)
			}
			if !strings.HasPrefix(got, want.digest) {
				t.Errorf("%s seed %d: digest %s, golden prefix %s", tc.spec, want.seed, got[:len(want.digest)], want.digest)
			}
		}
	}
	for _, f := range Families() {
		if covered[f] < 2 {
			t.Errorf("family %q has %d golden sizes, want at least 2", f, covered[f])
		}
	}
}

package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"unsafe"
)

// Binary artifact format (version 1): the on-disk shape of one CSR
// graph, written once per graph fingerprint by internal/graphstore and
// mapped back read-only by every worker that needs the topology. All
// integers are little-endian. Layout:
//
//	offset  size  field
//	     0     4  magic "CBRG"
//	     4     4  version (uint32, = 1)
//	     8     8  n (uint64, vertex count)
//	    16     8  adjLen (uint64, = 2m)
//	    24     4  flags (bit0 regular, bit1 degree-is-pow2, bit2 has-narrow)
//	    28     4  regDeg (int32, common degree; -1 if irregular)
//	    32     8  nameLen (uint64, family label byte length)
//	    40    32  SHA-256 over everything after the header
//	    72     8  reserved (zero)
//	    80     -  name bytes, zero-padded to a multiple of 8
//	     -     -  offsets: (n+1) int32, zero-padded to a multiple of 8
//	     -     -  adj: adjLen int32, zero-padded to a multiple of 8
//	     -     -  narrow (if bit2): pow2ceil(adjLen) uint16 — the
//	              AdjPow2Narrow table, present only when n <= 65536
//
// Every section after the header starts 8-byte aligned, so a decoded
// mapping can alias the file bytes directly as []int32 / []uint16 on
// little-endian hosts (zero copies, pages shared between processes).
const (
	artifactMagic      = "CBRG"
	artifactVersion    = 1
	artifactHeaderSize = 80

	artifactFlagRegular uint32 = 1 << 0
	artifactFlagDegPow2 uint32 = 1 << 1
	artifactFlagNarrow  uint32 = 1 << 2
)

// hostLittleEndian gates the zero-copy decode: on big-endian hosts the
// fixed little-endian file layout must be decoded element by element.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// pow2ceil returns the smallest power of two >= n, minimum 1 — the
// AdjPow2 / AdjPow2Narrow padded length convention.
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// EncodeBinary serializes g into the versioned binary artifact format,
// including the cached degree metadata and — when every vertex id fits
// in 16 bits — the narrow power-of-two adjacency table, so a decoded
// graph pays none of the lazy-build costs again.
func EncodeBinary(g *Graph) []byte {
	regular, regDeg := g.IsRegular() // forces finalize: metadata is cached
	name := []byte(g.name)
	n := g.N()
	adjLen := len(g.adj)

	var flags uint32
	var narrow []uint16
	if regular {
		flags |= artifactFlagRegular
	} else {
		regDeg = -1
	}
	if g.DegreeIsPow2() {
		flags |= artifactFlagDegPow2
	}
	if n <= 1<<16 {
		flags |= artifactFlagNarrow
		narrow = g.AdjPow2Narrow()
	}

	size := artifactHeaderSize + pad8(len(name)) + pad8((n+1)*4) + pad8(adjLen*4) + len(narrow)*2
	buf := make([]byte, size)
	copy(buf[0:4], artifactMagic)
	binary.LittleEndian.PutUint32(buf[4:8], artifactVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(adjLen))
	binary.LittleEndian.PutUint32(buf[24:28], flags)
	binary.LittleEndian.PutUint32(buf[28:32], uint32(regDeg))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(len(name)))

	off := artifactHeaderSize
	copy(buf[off:], name)
	off += pad8(len(name))
	for i, v := range g.offsets {
		binary.LittleEndian.PutUint32(buf[off+i*4:], uint32(v))
	}
	off += pad8((n + 1) * 4)
	for i, v := range g.adj {
		binary.LittleEndian.PutUint32(buf[off+i*4:], uint32(v))
	}
	off += pad8(adjLen * 4)
	for i, v := range narrow {
		binary.LittleEndian.PutUint16(buf[off+i*2:], v)
	}

	sum := sha256.Sum256(buf[artifactHeaderSize:])
	copy(buf[40:72], sum[:])
	return buf
}

// artifactHeader is the decoded fixed header, shared by decode and
// verification.
type artifactHeader struct {
	n       int
	adjLen  int
	flags   uint32
	regDeg  int32
	nameLen int
}

// parseArtifactHeader validates the fixed header and the total length
// against it, returning the section geometry.
func parseArtifactHeader(data []byte) (artifactHeader, error) {
	var h artifactHeader
	if len(data) < artifactHeaderSize {
		return h, fmt.Errorf("graph: artifact too short (%d bytes)", len(data))
	}
	if string(data[0:4]) != artifactMagic {
		return h, fmt.Errorf("graph: bad artifact magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != artifactVersion {
		return h, fmt.Errorf("graph: unsupported artifact version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	adjLen := binary.LittleEndian.Uint64(data[16:24])
	nameLen := binary.LittleEndian.Uint64(data[32:40])
	if n >= math.MaxInt32 || adjLen > math.MaxInt32 {
		return h, fmt.Errorf("graph: artifact dimensions overflow (n=%d adjLen=%d)", n, adjLen)
	}
	if nameLen > uint64(len(data)) {
		return h, fmt.Errorf("graph: artifact name length %d exceeds file", nameLen)
	}
	h.n = int(n)
	h.adjLen = int(adjLen)
	h.flags = binary.LittleEndian.Uint32(data[24:28])
	h.regDeg = int32(binary.LittleEndian.Uint32(data[28:32]))
	h.nameLen = int(nameLen)

	size := artifactHeaderSize + pad8(h.nameLen) + pad8((h.n+1)*4) + pad8(h.adjLen*4)
	if h.flags&artifactFlagNarrow != 0 {
		size += pow2ceil(h.adjLen) * 2
	}
	if len(data) != size {
		return h, fmt.Errorf("graph: artifact length %d, want %d (truncated or trailing garbage)", len(data), size)
	}
	return h, nil
}

// VerifyBinary checks the artifact's header and payload checksum; any
// error means the file must be discarded and the graph rebuilt.
func VerifyBinary(data []byte) error {
	if _, err := parseArtifactHeader(data); err != nil {
		return err
	}
	sum := sha256.Sum256(data[artifactHeaderSize:])
	if string(sum[:]) != string(data[40:72]) {
		return fmt.Errorf("graph: artifact checksum mismatch (have %x, computed %x)", data[40:72], sum[:8])
	}
	return nil
}

// BinaryDigest verifies data and returns the hex payload SHA-256 — the
// digest cobractl graph -verify prints.
func BinaryDigest(data []byte) (string, error) {
	if err := VerifyBinary(data); err != nil {
		return "", err
	}
	return hex.EncodeToString(data[40:72]), nil
}

// int32Section aliases (little-endian, aligned) or decodes count int32
// values at data[off:].
func int32Section(data []byte, off, count int) []int32 {
	if count == 0 {
		return []int32{}
	}
	sec := data[off:]
	if hostLittleEndian && uintptr(unsafe.Pointer(&sec[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&sec[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(sec[i*4:]))
	}
	return out
}

// uint16Section aliases or decodes count uint16 values at data[off:].
func uint16Section(data []byte, off, count int) []uint16 {
	if count == 0 {
		return []uint16{}
	}
	sec := data[off:]
	if hostLittleEndian && uintptr(unsafe.Pointer(&sec[0]))%2 == 0 {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&sec[0])), count)
	}
	out := make([]uint16, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(sec[i*2:])
	}
	return out
}

// DecodeBinary reconstructs a Graph from an encoded artifact. On
// little-endian hosts the offsets, adjacency, and narrow-adjacency
// slices alias data directly — callers handing in an mmap'd file get a
// zero-copy graph whose pages are shared with every other process
// mapping the same artifact, and must keep the mapping alive for the
// graph's lifetime. DecodeBinary validates structure (bounds, offset
// monotonicity, degree metadata and narrow table against the CSR) but
// not the checksum; run VerifyBinary first on bytes that crossed a disk
// or a network.
func DecodeBinary(data []byte) (*Graph, error) {
	h, err := parseArtifactHeader(data)
	if err != nil {
		return nil, err
	}
	off := artifactHeaderSize
	name := string(data[off : off+h.nameLen])
	off += pad8(h.nameLen)
	offsets := int32Section(data, off, h.n+1)
	off += pad8((h.n + 1) * 4)
	adj := int32Section(data, off, h.adjLen)
	off += pad8(h.adjLen * 4)
	var narrow []uint16
	if h.flags&artifactFlagNarrow != 0 {
		narrow = uint16Section(data, off, pow2ceil(h.adjLen))
	}

	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: artifact offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < h.n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: artifact offsets decrease at vertex %d", v)
		}
	}
	if int(offsets[h.n]) != h.adjLen {
		return nil, fmt.Errorf("graph: artifact final offset %d != adjacency length %d", offsets[h.n], h.adjLen)
	}
	for i, u := range adj {
		if u < 0 || int(u) >= h.n {
			return nil, fmt.Errorf("graph: artifact adjacency[%d] = %d out of range [0,%d)", i, u, h.n)
		}
	}
	// The kernels choose their sampling path by the degree metadata and
	// gather from the narrow table, masking every index, so metadata
	// that disagrees with the CSR would silently sample wrong
	// neighbours: recompute it and accept only an exact match.
	regDeg, degPow2 := degreeMeta(offsets)
	if h.regDeg != regDeg || (h.flags&artifactFlagRegular != 0) != (regDeg >= 0) ||
		(h.flags&artifactFlagDegPow2 != 0) != degPow2 {
		return nil, fmt.Errorf("graph: artifact degree metadata (flags %#x, regDeg %d) disagrees with its offsets (regDeg %d)",
			h.flags, h.regDeg, regDeg)
	}
	if narrow != nil {
		if h.n > 1<<16 {
			return nil, fmt.Errorf("graph: artifact carries a narrow table for %d > 65536 vertices", h.n)
		}
		for i, x := range narrow {
			var want uint16 // the padding is zero
			if i < len(adj) {
				want = uint16(adj[i])
			}
			if x != want {
				return nil, fmt.Errorf("graph: artifact narrow[%d] = %d, want %d", i, x, want)
			}
		}
	}

	g := &Graph{
		offsets:  offsets,
		adj:      adj,
		name:     name,
		metaDone: true,
		regDeg:   regDeg,
		degPow2:  degPow2,
	}
	if narrow != nil {
		g.adjPad16Once.Do(func() { g.adjPad16 = narrow })
	}
	return g, nil
}

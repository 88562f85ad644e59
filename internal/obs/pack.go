package obs

import (
	"encoding/binary"
	"math"
)

// The packed form a sealed Series keeps: the graph order n, then one
// record per retained frame, oldest first. Each field is a varint delta
// against the previous frame (the first against a zero frame), so a
// run of rounds costs a few bytes a frame:
//
//	trial, dur       Varint(x - prev.x), wrapping at 64 bits
//	round            Varint(round - prev.round - 1)
//	covered          Uvarint(zigzag(covered - prev.covered)<<1 | explicit)
//	coverage         8 bytes little-endian, only when explicit is set
//	frontier, minPos, maxPos   Varint(x - prev.x)
//
// Coverage is written only when its bits differ from what a Tracer
// computes from Covered and n, so every value round-trips bit for bit.

// pack encodes the ring's slots with sequence indexes [lo, head) into
// an exact-size byte slice.
func pack(ring []slot, lo, head uint64) []byte {
	capacity := uint64(len(ring))
	n := uint64(0)
	for i := lo; i < head && n == 0; i++ {
		n = impliedOrder(&ring[i%capacity])
	}
	buf := binary.AppendUvarint(make([]byte, 0, 16*(head-lo)+binary.MaxVarintLen64), n)
	var prev slot
	for i := lo; i < head; i++ {
		e := &ring[i%capacity]
		buf = binary.AppendVarint(buf, e.trial-prev.trial)
		buf = binary.AppendVarint(buf, e.round-prev.round-1)
		d := int64(e.covered) - int64(prev.covered)
		zz := uint64(d<<1) ^ uint64(d>>63)
		if bits := math.Float64bits(e.coverage); bits != math.Float64bits(coverageOf(e.covered, n)) {
			buf = binary.AppendUvarint(buf, zz<<1|1)
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		} else {
			buf = binary.AppendUvarint(buf, zz<<1)
		}
		buf = binary.AppendVarint(buf, int64(e.frontier)-int64(prev.frontier))
		buf = binary.AppendVarint(buf, int64(e.minPos)-int64(prev.minPos))
		buf = binary.AppendVarint(buf, int64(e.maxPos)-int64(prev.maxPos))
		buf = binary.AppendVarint(buf, e.dur-prev.dur)
		prev = *e
	}
	return append(make([]byte, 0, len(buf)), buf...)
}

// unpack decodes packed frames, whose first record has sequence index
// first, into out: out[0] receives the frame with index lo, and every
// frame in out is decoded.
func unpack(out []Frame, packed []byte, first, lo uint64) {
	n, k := binary.Uvarint(packed)
	packed = packed[k:]
	next := func() int64 {
		v, k := binary.Varint(packed)
		packed = packed[k:]
		return v
	}
	var prev slot
	for i := first; i < lo+uint64(len(out)); i++ {
		e := prev
		e.trial += next()
		e.round += next() + 1
		u, k := binary.Uvarint(packed)
		packed = packed[k:]
		zz := u >> 1
		e.covered = int32(int64(prev.covered) + (int64(zz>>1) ^ -int64(zz&1)))
		if u&1 == 1 {
			e.coverage = math.Float64frombits(binary.LittleEndian.Uint64(packed))
			packed = packed[8:]
		} else {
			e.coverage = coverageOf(e.covered, n)
		}
		e.frontier += int32(next())
		e.minPos += int32(next())
		e.maxPos += int32(next())
		e.dur += next()
		if i >= lo {
			out[i-lo] = e.frame()
		}
		prev = e
	}
}

// impliedOrder returns the graph order n for which a Tracer would have
// written e's coverage from its covered count, or 0 when e has no
// positive count and coverage to infer it from.
func impliedOrder(e *slot) uint64 {
	if e.covered <= 0 || !(e.coverage > 0) {
		return 0
	}
	n := math.Round(float64(e.covered) / e.coverage)
	if n < 1 || n > 1<<53 {
		return 0
	}
	return uint64(n)
}

// coverageOf is the coverage a Tracer records for covered of n vertices.
func coverageOf(covered int32, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(covered) / float64(n)
}

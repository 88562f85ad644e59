package obs

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"testing"
)

func TestSeriesAppendSnapshot(t *testing.T) {
	s := NewSeries(8)
	if got, next := s.Snapshot(); len(got) != 0 || next != 0 {
		t.Fatalf("empty series: got %d frames, next %d", len(got), next)
	}
	for i := 0; i < 5; i++ {
		s.Append(Frame{Trial: 0, Round: i + 1, Covered: i})
	}
	frames, next := s.Snapshot()
	if next != 5 || len(frames) != 5 {
		t.Fatalf("got %d frames, next %d; want 5, 5", len(frames), next)
	}
	for i, f := range frames {
		if f.Round != i+1 {
			t.Fatalf("frame %d has round %d, want %d", i, f.Round, i+1)
		}
	}
	// Incremental read from the cursor sees only new frames.
	s.Append(Frame{Round: 6})
	frames, next2 := s.Since(next)
	if len(frames) != 1 || frames[0].Round != 6 || next2 != 6 {
		t.Fatalf("Since(%d) = %d frames next %d, want 1 frame next 6", next, len(frames), next2)
	}
}

func TestSeriesWrapKeepsNewest(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 10; i++ {
		s.Append(Frame{Round: i + 1})
	}
	frames, next := s.Snapshot()
	if next != 10 {
		t.Fatalf("next = %d, want 10", next)
	}
	if len(frames) != 4 {
		t.Fatalf("retained %d frames, want 4", len(frames))
	}
	for i, f := range frames {
		if want := 7 + i; f.Round != want {
			t.Fatalf("frame %d round = %d, want %d", i, f.Round, want)
		}
	}
	// A cursor pointing at overwritten history resumes at the oldest
	// retained frame instead of erroring.
	frames, _ = s.Since(2)
	if len(frames) != 4 || frames[0].Round != 7 {
		t.Fatalf("Since(2) = %d frames starting at round %d, want 4 from 7", len(frames), frames[0].Round)
	}
}

// TestSeriesDefaultCapacity pins that a series never appended to, as
// a job that never traces, holds no ring yet reports its capacity.
func TestSeriesDefaultCapacity(t *testing.T) {
	s := NewSeries(0)
	if got := s.Cap(); got != DefaultCapacity {
		t.Fatalf("Cap() = %d, want %d", got, DefaultCapacity)
	}
	if frames, next := s.Snapshot(); s.ring != nil || frames != nil || next != 0 {
		t.Fatalf("untraced series: ring %d slots, %d frames, next %d; want none", len(s.ring), len(frames), next)
	}
	s.Append(Frame{Round: 1})
	if len(s.ring) != DefaultCapacity {
		t.Fatalf("first Append allocated %d slots, want %d", len(s.ring), DefaultCapacity)
	}
}

// TestSeriesAppendAllocatesNothing pins that frames are stored by
// value: once the first Append has allocated the ring, appending,
// wrap included, allocates nothing.
func TestSeriesAppendAllocatesNothing(t *testing.T) {
	s := NewSeries(4)
	s.Append(Frame{})
	round := 0
	if allocs := testing.AllocsPerRun(100, func() {
		round++
		s.Append(Frame{Trial: 1, Round: round, Covered: round, Coverage: 0.5, Frontier: 2, MinPos: -1, MaxPos: -1, DurNanos: 7})
	}); allocs != 0 {
		t.Fatalf("Append allocated %v times per call, want 0", allocs)
	}
}

// TestSeriesWideFrameRoundTrip pins which fields keep 64 bits in the
// packed ring: a trial index past 2^31, a round past 2^32 (a walk's
// round cap passes it on large graphs), the duration and the exact
// coverage bits all read back unchanged, next to negative positions.
func TestSeriesWideFrameRoundTrip(t *testing.T) {
	want := Frame{
		Trial:    1<<31 + 5,
		Round:    1<<32 + 7,
		Covered:  1<<31 - 1,
		Coverage: 1.0 / 3,
		Frontier: 123456789,
		MinPos:   -1,
		MaxPos:   2147483000,
		DurNanos: 1<<62 + 11,
	}
	s := NewSeries(2)
	for i := 0; i < 3; i++ {
		s.Append(want)
	}
	for sealed := range 2 {
		frames, next := s.Snapshot()
		if next != 3 || len(frames) != 2 {
			t.Fatalf("sealed=%d: got %d frames, next %d; want 2, 3", sealed, len(frames), next)
		}
		for _, got := range frames {
			if got != want {
				t.Fatalf("sealed=%d round trip:\n got %+v\nwant %+v", sealed, got, want)
			}
		}
		s.Seal()
	}
}

// sameFrames compares frames field by field, Coverage by its bits.
func sameFrames(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Coverage) != math.Float64bits(y.Coverage) {
			return false
		}
		x.Coverage, y.Coverage = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// checkSeal seals s and requires every read to answer as the ring did:
// Since at every cursor from 0 to head+1, Frames, TrialProgress and
// Cap. It returns the sealed size.
func checkSeal(t *testing.T, s *Series) int {
	t.Helper()
	head := s.Frames()
	want := make([][]Frame, head+2)
	for x := range want {
		frames, next := s.Since(uint64(x))
		if next != head {
			t.Fatalf("ring Since(%d) next = %d, want %d", x, next, head)
		}
		want[x] = frames
	}
	inFlight, mean := s.TrialProgress()
	size := s.Seal()
	for x := range want {
		got, next := s.Since(uint64(x))
		if next != head || !sameFrames(got, want[x]) {
			t.Fatalf("sealed Since(%d) = %d frames, next %d; ring gave %d frames, next %d\n got %+v\nwant %+v",
				x, len(got), next, len(want[x]), head, got, want[x])
		}
	}
	if got := s.Frames(); got != head {
		t.Fatalf("sealed Frames() = %d, want %d", got, head)
	}
	if i, m := s.TrialProgress(); i != inFlight || m != mean {
		t.Fatalf("sealed TrialProgress = %d, %v; want %d, %v", i, m, inFlight, mean)
	}
	if again := s.Seal(); again != size {
		t.Fatalf("second Seal = %d bytes, first %d", again, size)
	}
	return size
}

// TestSeriesSealKeepsFrames pins Seal on a traced series that wrapped
// its ring: the reads match, the packed frames take a fraction of the
// ring's bytes, and an Append after Seal panics.
func TestSeriesSealKeepsFrames(t *testing.T) {
	s := NewSeries(64)
	tr := NewTracer(s)
	for trial := 0; trial < 5; trial++ {
		tt := tr.Begin(trial)
		for round := 1; round <= 30; round++ {
			tt.Round(min(round*round, 700), 700, round%9+1, -1, round/2)
		}
		tt.End()
	}
	// A coverage that is not Covered/n, and one that no n implies.
	s.Append(Frame{Trial: 9, Round: 1, Covered: 3, Coverage: 0.7, MinPos: -1, MaxPos: -1})
	s.Append(Frame{Trial: 9, Round: 2, Covered: 0, Coverage: math.Copysign(0, -1)})
	if size := checkSeal(t, s); size <= 0 || size > 64*48/4 {
		t.Fatalf("sealed 64 frames into %d bytes, want at most a quarter of the ring's %d", size, 64*48)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append after Seal did not panic")
		}
	}()
	s.Append(Frame{})
}

// TestSeriesSealConcurrentReaders seals a series while readers call
// Since; under -race this pins that Seal and the readers are ordered
// by the mutex, and every read, before or after the seal, matches the
// ring's answer.
func TestSeriesSealConcurrentReaders(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		s := NewSeries(32)
		for i := 1; i <= 100; i++ {
			s.Append(Frame{Trial: i / 7, Round: i%7 + 1, Covered: i * 3, Coverage: float64(i*3) / 500, Frontier: i % 11, MinPos: -1, MaxPos: i / 4, DurNanos: int64(i) * 1000})
		}
		want := make([][]Frame, 102)
		for x := range want {
			want[x], _ = s.Since(uint64(x))
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					x := (i*7 + r) % len(want)
					if got, next := s.Since(uint64(x)); next != 100 || !sameFrames(got, want[x]) {
						t.Errorf("Since(%d) during seal: %d frames, next %d; want %d frames, next 100", x, len(got), next, len(want[x]))
						return
					}
				}
			}(r)
		}
		close(start)
		s.Seal()
		wg.Wait()
	}
}

// fuzzFrames decodes fuzz input into at most 1024 frames. Each frame
// reads seven varint deltas against the previous frame (Trial, Round,
// Covered, Frontier, MinPos, MaxPos, DurNanos), then a uvarint n:
// Coverage is Covered/n, or for n = 0 the bits in the next 8 bytes.
func fuzzFrames(data []byte) []Frame {
	var out []Frame
	var f Frame
	next := func() (int64, bool) {
		v, k := binary.Varint(data)
		if k <= 0 {
			return 0, false
		}
		data = data[k:]
		return v, true
	}
	for len(out) < 1024 {
		var d [7]int64
		for i := range d {
			v, ok := next()
			if !ok {
				return out
			}
			d[i] = v
		}
		n, k := binary.Uvarint(data)
		if k <= 0 {
			return out
		}
		data = data[k:]
		f.Trial += int(d[0])
		f.Round += int(d[1])
		f.Covered += int(d[2])
		f.Frontier += int(d[3])
		f.MinPos += int(d[4])
		f.MaxPos += int(d[5])
		f.DurNanos += d[6]
		if n > 0 {
			f.Coverage = float64(f.Covered) / float64(n)
		} else {
			if len(data) < 8 {
				return out
			}
			f.Coverage = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		out = append(out, f)
	}
	return out
}

// FuzzSeriesSeal appends decoded frames to a series of capacity 1 to
// 16, so the ring wraps, and requires the sealed series to answer
// every read as the ring did. The frames can carry trial jumps, round
// resets, falling covered counts, negative positions, rounds and
// durations past 2^32 and arbitrary coverage bits. The committed
// corpus holds a recorded cobra trace among others.
func FuzzSeriesSeal(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity uint8, data []byte) {
		s := NewSeries(1 + int(capacity%16))
		for _, fr := range fuzzFrames(data) {
			s.Append(fr)
		}
		checkSeal(t, s)
	})
}

// TestSeriesConcurrentReaders hammers one producer against many
// snapshot readers; under -race this pins that the mutex orders every
// access, and the assertions pin that readers never observe a torn or
// out-of-order frame.
func TestSeriesConcurrentReaders(t *testing.T) {
	s := NewSeries(32)
	const frames = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, next := s.Since(cursor)
				last := -1
				for _, f := range got {
					if f.Round <= last {
						t.Errorf("out-of-order frames: %d after %d", f.Round, last)
						return
					}
					if f.Covered != f.Round*3 {
						t.Errorf("torn frame: round %d covered %d", f.Round, f.Covered)
						return
					}
					last = f.Round
				}
				cursor = next
			}
		}()
	}
	for i := 1; i <= frames; i++ {
		s.Append(Frame{Round: i, Covered: i * 3})
	}
	close(stop)
	wg.Wait()
	if got := s.Frames(); got != frames {
		t.Fatalf("Frames() = %d, want %d", got, frames)
	}
}

// TestTracerSingleFlight pins the arbitration contract: concurrent
// Begin calls admit exactly one trace at a time, and End releases the
// slot for the next trial.
func TestTracerSingleFlight(t *testing.T) {
	s := NewSeries(16)
	tr := NewTracer(s)
	t1 := tr.Begin(1)
	if t1 == nil {
		t.Fatal("first Begin returned nil")
	}
	if t2 := tr.Begin(2); t2 != nil {
		t.Fatal("second Begin succeeded while the first trial is traced")
	}
	t1.Round(1, 10, 1, 0, 0)
	t1.End()
	t3 := tr.Begin(3)
	if t3 == nil {
		t.Fatal("Begin after End returned nil")
	}
	t3.Round(2, 10, 2, 0, 1)
	t3.End()

	frames, _ := s.Snapshot()
	if len(frames) != 2 {
		t.Fatalf("recorded %d frames, want 2", len(frames))
	}
	if frames[0].Trial != 1 || frames[1].Trial != 3 {
		t.Fatalf("trials = %d, %d; want 1, 3", frames[0].Trial, frames[1].Trial)
	}
	if frames[1].Coverage != 0.2 {
		t.Fatalf("coverage = %v, want 0.2", frames[1].Coverage)
	}
	inFlight, mean := s.TrialProgress()
	if inFlight != 0 || mean != 1 {
		t.Fatalf("TrialProgress = %d, %v; want 0, 1", inFlight, mean)
	}
}

// TestTracerConcurrentTrials runs parallel workers all offering trials;
// under -race this pins that the CAS slot serializes producers.
func TestTracerConcurrentTrials(t *testing.T) {
	s := NewSeries(64)
	tr := NewTracer(s)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for trial := 0; trial < 200; trial++ {
				tt := tr.Begin(w*200 + trial)
				if tt == nil {
					continue
				}
				for round := 0; round < 3; round++ {
					tt.Round(round+1, 100, round+1, 0, round)
				}
				tt.End()
			}
		}(w)
	}
	wg.Wait()
	frames, _ := s.Snapshot()
	// Frames from a ring snapshot of serialized traces must be whole
	// per-trial runs interleaved nowhere: round numbers within one
	// trial strictly increase.
	for i := 1; i < len(frames); i++ {
		if frames[i].Trial == frames[i-1].Trial && frames[i].Round != frames[i-1].Round+1 {
			t.Fatalf("frames %d,%d: trial %d rounds %d -> %d", i-1, i,
				frames[i].Trial, frames[i-1].Round, frames[i].Round)
		}
	}
	if _, mean := s.TrialProgress(); mean != 3 {
		t.Fatalf("mean rounds per trial = %v, want 3", mean)
	}
}

func TestNilTracerBegin(t *testing.T) {
	var tr *Tracer
	if got := tr.Begin(0); got != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", got)
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if got := TraceID(ctx); got != "" {
		t.Fatalf("TraceID(empty ctx) = %q", got)
	}
	ctx = WithTrace(ctx, "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Fatalf("TraceID = %q, want abc123", got)
	}
	if WithTrace(ctx, "") != ctx {
		t.Fatal("WithTrace(\"\") should be a no-op")
	}
	id1, id2 := NewTraceID(), NewTraceID()
	if id1 == "" || id1 == id2 {
		t.Fatalf("NewTraceID not unique: %q %q", id1, id2)
	}
}

// BenchmarkSeriesAppend measures one traced round's cost to the series:
// a by-value store into the ring under its mutex, no allocation.
func BenchmarkSeriesAppend(b *testing.B) {
	s := NewSeries(0)
	b.ReportAllocs()
	round := 0
	for b.Loop() {
		round++
		s.Append(Frame{Trial: 3, Round: round, Covered: round, Coverage: 0.5, Frontier: 9, MinPos: 1, MaxPos: 4, DurNanos: 100})
	}
}

// benchSeries returns a series whose full 512-frame ring holds traced
// rounds shaped like a cobra run's: 40-round trials on a 4096-vertex
// graph, the frontier and covered count growing, the positions
// spreading, and durations of tens of microseconds.
func benchSeries() *Series {
	s := NewSeries(0)
	tr := NewTracer(s)
	x := uint64(1)
	for trial := 0; s.Frames() < DefaultCapacity; trial++ {
		tt := tr.Begin(trial)
		covered, frontier := 1, 1
		for round := 1; round <= 40; round++ {
			x = x*6364136223846793005 + 1442695040888963407
			frontier = min(frontier*2-int(x>>61), 4096)
			covered = min(covered+frontier/2+int(x>>60), 4096)
			tt.Round(covered, 4096, frontier, round/4-int(x>>62), round+int(x>>62))
		}
		tt.End()
	}
	return s
}

// BenchmarkSeriesSeal measures packing one full 512-frame ring, what a
// traced job's finish costs.
func BenchmarkSeriesSeal(b *testing.B) {
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSeries()
		b.StartTimer()
		size = s.Seal()
	}
	b.ReportMetric(float64(size), "B/sealed")
}

// BenchmarkSeriesSince reads a full 512-frame series from cursor 0, as
// /series and the SSE replay do: from the ring while the job runs and
// from the packed bytes once it has finished.
func BenchmarkSeriesSince(b *testing.B) {
	for _, sealed := range []bool{false, true} {
		name := "ring"
		if sealed {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			s := benchSeries()
			if sealed {
				s.Seal()
			}
			b.ReportAllocs()
			for b.Loop() {
				frames, _ := s.Since(0)
				if len(frames) != DefaultCapacity {
					b.Fatalf("read %d frames", len(frames))
				}
			}
		})
	}
}

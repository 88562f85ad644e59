package obs

import (
	"context"
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
	frames, next := s.Snapshot()
	if next != 3 || len(frames) != 2 {
		t.Fatalf("got %d frames, next %d; want 2, 3", len(frames), next)
	}
	for _, got := range frames {
		if got != want {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
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

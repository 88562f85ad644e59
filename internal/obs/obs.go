// Package obs is the observability core: per-round observable streams
// recorded while a simulation runs, and the trace identifiers that tie
// an HTTP request to the engine job it spawned.
//
// The paper's objects of study — coverage growth, frontier size, the
// extremal positions of a branching walk per generation — are
// trajectories, not scalars. A Series keeps the newest frames of the
// trials a Tracer admits one at a time: by value in a fixed-capacity
// ring while its job runs, then packed into a few bytes a frame once
// the job has finished (Seal). Concurrency contract: one mutex guards a
// Series; Append holds it to store one frame, Seal while it packs the
// ring, and a reader only while it copies or decodes at most Cap
// frames. A reader that falls behind loses history, never consistency.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the ring capacity used when NewSeries is given a
// non-positive capacity: enough rounds for a coarse-grained view of any
// experiment in this repository while keeping a per-job series cheap.
const DefaultCapacity = 512

// Frame is one observed round of one trial: the per-generation
// observables the paper (and the branching-random-walk literature it
// cites) studies.
type Frame struct {
	// Trial is the trial index the frame belongs to.
	Trial int `json:"trial"`
	// Round is the 1-based round number within the trial.
	Round int `json:"round"`
	// Covered is the number of distinct vertices covered (infected,
	// informed) so far.
	Covered int `json:"covered"`
	// Coverage is Covered divided by the graph order, in [0, 1].
	Coverage float64 `json:"coverage"`
	// Frontier is the active-set size this round: active cobra
	// vertices, infected vertices, occupied Walt vertices, or newly
	// informed gossip vertices.
	Frontier int `json:"frontier"`
	// MinPos and MaxPos are the extremal positions of the frontier,
	// measured as BFS depth from the start vertex — the per-generation
	// minima/maxima of the branching random walk. -1 when unknown.
	MinPos int `json:"min_pos"`
	MaxPos int `json:"max_pos"`
	// DurNanos is the wall-clock duration of the round in nanoseconds
	// (0 for the first round of a trial). Timing is observational
	// metadata: it feeds histograms, never results.
	DurNanos int64 `json:"dur_nanos,omitempty"`
}

// slot is a Frame packed into 48 bytes: the counts and positions are
// bounded by the graph order, whose vertex ids are int32, while a
// walk's round cap passes 2^32 on large graphs.
type slot struct {
	trial, round, dur                 int64
	coverage                          float64
	covered, frontier, minPos, maxPos int32
}

func (e *slot) frame() Frame {
	return Frame{
		Trial: int(e.trial), Round: int(e.round), Covered: int(e.covered), Coverage: e.coverage,
		Frontier: int(e.frontier), MinPos: int(e.minPos), MaxPos: int(e.maxPos), DurNanos: e.dur,
	}
}

// Series holds the newest Cap frames. While its producer runs they sit
// in a ring of 48-byte slots, which the first Append allocates, so a
// job that never traces holds none. Seal then packs them into one
// exact-size byte slice (see pack.go), about 8 bytes a frame, and
// drops the ring; readers see the same frames and cursors either way.
type Series struct {
	capacity int
	mu       sync.Mutex
	ring     []slot
	packed   []byte // the retained frames once sealed
	sealed   bool
	head     uint64 // frames ever appended; the next frame gets index head
	// Trial accounting for progress interpolation: frames belonging to
	// finished traced trials, and the count of finished traced trials.
	doneFrames, doneTrials uint64
	// sink, when set (before any producer starts), observes every
	// appended frame — the engine feeds round-duration histograms here.
	sink func(Frame)
}

// NewSeries creates a series with the given ring capacity (DefaultCapacity
// when capacity is not positive).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Series{capacity: capacity}
}

// SetSink installs a callback invoked synchronously by the producer for
// every appended frame. It must be called before the first Append and
// the callback must be safe for use from the producing goroutine.
func (s *Series) SetSink(fn func(Frame)) { s.sink = fn }

// Cap returns the ring capacity.
func (s *Series) Cap() int { return s.capacity }

// Frames returns the total number of frames ever appended — the
// sequence number the next frame will receive.
func (s *Series) Frames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// Append stores one frame, overwriting the oldest once the ring is full.
// It panics on a sealed series.
func (s *Series) Append(f Frame) {
	s.mu.Lock()
	if s.sealed {
		s.mu.Unlock()
		panic("obs: Append to a sealed Series")
	}
	if s.ring == nil {
		s.ring = make([]slot, s.capacity)
	}
	s.ring[s.head%uint64(s.capacity)] = slot{
		trial: int64(f.Trial), round: int64(f.Round), dur: f.DurNanos, coverage: f.Coverage,
		covered: int32(f.Covered), frontier: int32(f.Frontier), minPos: int32(f.MinPos), maxPos: int32(f.MaxPos),
	}
	s.head++
	s.mu.Unlock()
	if s.sink != nil {
		s.sink(f)
	}
}

// Since returns the retained frames with sequence index >= since, in
// index order, along with the next sequence index (pass it back as
// since to read only newer frames). Frames older than the ring
// capacity are gone; a reader that falls behind skips them.
func (s *Series) Since(since uint64) ([]Frame, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	head := s.head
	if since >= head {
		return nil, head
	}
	capacity := uint64(s.capacity)
	first := head - min(head, capacity)
	lo := max(since, first)
	out := make([]Frame, head-lo)
	if s.sealed {
		unpack(out, s.packed, first, lo)
		return out, head
	}
	for i := range out {
		out[i] = s.ring[(lo+uint64(i))%capacity].frame()
	}
	return out, head
}

// Seal packs the retained frames and drops the ring, returning the
// bytes the packed frames hold. It is for a series whose producer has
// finished: Since, Snapshot, Frames, TrialProgress and Cap answer
// exactly as before, and Append panics. Sealing again changes nothing.
func (s *Series) Seal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed && s.ring != nil {
		s.packed = pack(s.ring, s.head-min(s.head, uint64(s.capacity)), s.head)
		s.ring = nil
	}
	s.sealed = true
	return len(s.packed)
}

// Snapshot returns every retained frame in order plus the next sequence
// index.
func (s *Series) Snapshot() ([]Frame, uint64) { return s.Since(0) }

// endTrial records the completion of a traced trial; called by Trace.End.
func (s *Series) endTrial() {
	s.mu.Lock()
	s.doneFrames = s.head
	s.doneTrials++
	s.mu.Unlock()
}

// TrialProgress reports the observation-derived progress hints used to
// interpolate coarse job progress: the number of rounds observed in the
// currently traced trial (0 when none is in flight) and the mean
// rounds per completed traced trial (0 until one finishes).
func (s *Series) TrialProgress() (inFlight int, meanRounds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inFlight = int(s.head - s.doneFrames)
	if s.doneTrials > 0 {
		meanRounds = float64(s.doneFrames) / float64(s.doneTrials)
	}
	return inFlight, meanRounds
}

// Trace observes one trial: one Round call per executed round, then
// End. Implementations must not draw from the trial's random stream.
type Trace interface {
	// Round records one executed round: the covered count, the graph
	// order, the frontier size, and the extremal frontier positions
	// (BFS depth from the start vertex; -1 when unknown).
	Round(covered, n, frontier, minPos, maxPos int)
	// End releases the trace; the trial is complete.
	End()
}

// Observer hands out traces: a process offers every trial via Begin,
// and runs the trial unobserved when Begin returns nil. Observers must
// be safe for concurrent Begin calls from parallel trial workers.
type Observer interface {
	Begin(trial int) Trace
}

// Tracer is the standard Observer: it traces one trial at a time into
// a Series, so each trial's frames are contiguous even when trials run
// on many workers.
type Tracer struct {
	s    *Series
	busy atomic.Bool
}

// NewTracer creates a tracer recording into s.
func NewTracer(s *Series) *Tracer { return &Tracer{s: s} }

// Begin implements Observer: it claims the tracer for one trial via
// compare-and-swap, returning nil — run unobserved — when another
// trial currently holds it. A nil *Tracer always returns nil, so
// callers can thread an optional observer without nil checks.
func (t *Tracer) Begin(trial int) Trace {
	if t == nil || !t.busy.CompareAndSwap(false, true) {
		return nil
	}
	return &trace{t: t, trial: trial}
}

// trace is one claimed trial observation.
type trace struct {
	t     *Tracer
	trial int
	round int
	last  time.Time
}

// Round implements Trace.
func (tr *trace) Round(covered, n, frontier, minPos, maxPos int) {
	tr.round++
	now := time.Now()
	var dur int64
	if !tr.last.IsZero() {
		dur = now.Sub(tr.last).Nanoseconds()
	}
	tr.last = now
	coverage := 0.0
	if n > 0 {
		coverage = float64(covered) / float64(n)
	}
	tr.t.s.Append(Frame{
		Trial:    tr.trial,
		Round:    tr.round,
		Covered:  covered,
		Coverage: coverage,
		Frontier: frontier,
		MinPos:   minPos,
		MaxPos:   maxPos,
		DurNanos: dur,
	})
}

// End implements Trace: it publishes the trial-complete accounting and
// releases the tracer for the next trial.
func (tr *trace) End() {
	tr.t.s.endTrial()
	tr.t.busy.Store(false)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/client"
	"repro/internal/engine"
)

// warm performs the set-up work the timed phase reuses: one untimed
// sweep on the sweep workloads, so lazy set-up finishes; on point-jobs
// the repeat set, which also builds every graph of the fixed set.
func (s *stack) warm(p *plan) error {
	ctx, cancel := context.WithDeadline(context.Background(), processStart.Add(setupBudget))
	defer cancel()
	if p.warmup != nil {
		out, st, err := s.clients[0].RunSweep(ctx, *p.warmup, nil)
		if err != nil {
			return err
		}
		if err := checkSweep(p.warmup, out); err != nil {
			return err
		}
		if err := s.settle(ctx, st.Fingerprint); err != nil {
			return err
		}
		s.warmup, s.warmupID = out, st.ID
		return nil
	}
	s.repeatOuts = make([][]byte, len(p.repeats))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			for i := c; i < len(p.repeats); i += len(s.clients) {
				out, st, err := cl.Run(ctx, "process", p.repeats[i], nil)
				if err == nil && st.CacheHit {
					err = fmt.Errorf("repeat-set job %d served from the cache", i)
				}
				if err == nil {
					err = checkJob(p.repeats[i], out)
				}
				if err != nil {
					errs[c] = err
					return
				}
				s.repeatOuts[i] = encode(out)
			}
		}(c, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkSweep demands every point of the aggregate, each with one value
// per trial and the sample count the metrics are built from.
func checkSweep(spec *engine.SweepSpec, out *engine.Output) error {
	if want := len(spec.Sizes); len(out.Points) != want {
		return fmt.Errorf("aggregate holds %d points, want %d", len(out.Points), want)
	}
	for i, pt := range out.Points {
		if len(pt.Values) != spec.Trials {
			return fmt.Errorf("point %d holds %d values, want %d", i, len(pt.Values), spec.Trials)
		}
		if _, ok := pt.Summary["messages_mean"]; !ok {
			return fmt.Errorf("point %d has no messages_mean", i)
		}
	}
	return nil
}

func checkJob(spec *engine.ProcessSpec, out *engine.Output) error {
	if len(out.Values) != spec.Trials {
		return fmt.Errorf("job holds %d values, want %d", len(out.Values), spec.Trials)
	}
	if _, ok := out.Summary["messages_mean"]; !ok {
		return fmt.Errorf("job has no messages_mean")
	}
	return nil
}

// checkInline runs the per-operation checks: shape, the server's
// cache_hit flag (a repeat must be a hit, a fresh request must not),
// and a repeat's result byte-identical to the one it repeats.
func checkInline(t *timedRun, s *stack) {
	t.checks = append(t.checks,
		"every operation done",
		"aggregate holds every point with len(values) == trials",
		"repeats have cache_hit set, fresh requests do not",
		"repeat results byte-identical to the results they repeat")
	var warmup []byte
	if s.warmup != nil {
		warmup = encode(s.warmup)
	}
	for _, o := range t.ops {
		if o.err != nil {
			continue
		}
		var err error
		if o.op.sweep != nil {
			err = checkSweep(o.op.sweep, o.out)
		} else {
			err = checkJob(o.op.job, o.out)
		}
		if err != nil {
			o.fail("check", fmt.Errorf("%s: %w", describe(o.op), err))
			continue
		}
		if o.status.CacheHit != o.op.repeat {
			o.fail("check", fmt.Errorf("%s: cache_hit=%v on a repeat=%v request", describe(o.op), o.status.CacheHit, o.op.repeat))
			continue
		}
		if !o.op.repeat {
			continue
		}
		want := warmup
		if o.op.job != nil {
			want = s.repeatOuts[o.op.of]
		}
		if !bytes.Equal(encode(o.out), want) {
			o.fail("check", fmt.Errorf("%s: repeat result differs from the original", describe(o.op)))
		}
	}
}

// checkAll runs the checks that need more than the operation: one
// fresh operation recomputed on a plain in-process engine must match
// the served result byte for byte (on cluster-sweep this is the
// aggregate against a single-node run), and on cluster-sweep the
// journal must bill every point exactly once.
func checkAll(ctx context.Context, s *stack, p *plan, t *timedRun) {
	o := t.ops[p.checkOp]
	t.checks = append(t.checks, "one fresh operation byte-identical to a plain in-process engine's result")
	if o.err == nil {
		if err := recompute(ctx, o); err != nil {
			o.fail("check", fmt.Errorf("%s: %w", describe(o.op), err))
		}
	}
	if s.coord == nil {
		return
	}
	t.checks = append(t.checks, "cluster journal holds exactly one entry per point")
	checkJournal(ctx, s, t)
}

func recompute(ctx context.Context, o *outcome) error {
	eng := engine.New(engine.Options{Workers: 1, QueueDepth: 64})
	defer eng.Shutdown(context.Background())
	var spec engine.Spec = o.op.job
	if o.op.sweep != nil {
		spec = o.op.sweep
	}
	want, err := eng.RunSync(ctx, spec)
	if err != nil {
		return fmt.Errorf("recompute: %w", err)
	}
	if !bytes.Equal(encode(want), encode(o.out)) {
		return fmt.Errorf("served result differs from a plain engine's")
	}
	return nil
}

// checkJournal compares the coordinator's journal with the points of
// every sweep the cluster computed: the warm-up and each fresh sweep.
func checkJournal(ctx context.Context, s *stack, t *timedRun) {
	entries, err := s.coord.backend.Journal()
	if err != nil {
		t.ops[0].fail("check", fmt.Errorf("read journal: %w", err))
		return
	}
	billed := map[string]int{}
	for _, e := range entries {
		billed[e.Key]++
	}
	expected := 0
	verify := func(id string) error {
		_, children, err := s.clients[0].Sweep(ctx, id)
		if err != nil {
			return fmt.Errorf("read sweep %s: %w", id, err)
		}
		for _, c := range children {
			expected++
			if n := billed[c.Fingerprint]; n != 1 {
				return fmt.Errorf("point %.12s journaled %d times", c.Fingerprint, n)
			}
		}
		return nil
	}
	if err := verify(s.warmupID); err != nil {
		t.ops[0].fail("check", fmt.Errorf("warm-up sweep: %w", err))
	}
	for _, o := range t.ops {
		if o.op.repeat || o.err != nil {
			continue
		}
		if err := verify(o.status.ID); err != nil {
			o.fail("check", fmt.Errorf("%s: %w", describe(o.op), err))
		}
	}
	if len(entries) != expected && t.failed() == 0 {
		t.ops[0].fail("check", fmt.Errorf("journal holds %d entries for %d points", len(entries), expected))
	}
}

// encode is the JSON the service serves an output as. Outputs are plain
// data, so Marshal cannot fail.
func encode(out *engine.Output) []byte {
	data, _ := json.Marshal(out)
	return data
}

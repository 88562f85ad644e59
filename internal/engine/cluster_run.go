package engine

import (
	"container/heap"
	"errors"
	"time"
)

// errRequeue is execute's signal that the job is blocked on a foreign
// lease while other work is pending: the worker returns the job to the
// back of its priority class and takes the next pending job, so one
// node's in-flight points never park every worker slot of its peers.
var errRequeue = errors.New("engine: requeue behind foreign lease")

// execute runs j's spec to an output. On a single node that is a plain
// Spec.Run; in a cluster (Options.Cluster set) the worker first
// arbitrates through the cluster's arbiter so each fingerprint is
// computed once cluster-wide:
//
//  1. adopt — if a peer already stored the result, take it as-is;
//  2. claim — try to take the point's lease; the winner computes,
//     heartbeating the lease while it runs and persisting the result
//     before releasing, so the next claimant observes the record;
//  3. wait — a foreign live lease means a peer is computing: poll the
//     store until the result lands or the lease expires (a dead peer),
//     in which case the claim is retried and reclaims it. A worker
//     with other pending jobs waits at most one poll interval and then
//     requeues the blocked job behind them, so it spends its slot on
//     claimable work instead of trailing a peer's claim frontier.
//
// Leases save duplicate work; they do not carry correctness. Results
// are deterministic and content-addressed, so the worst outcome of a
// holder stalling past its TTL is a byte-identical record computed
// twice.
func (e *Engine) execute(j *Job) (*Output, error) {
	c := e.opts.Cluster
	if c == nil || e.opts.Store == nil {
		out, err := e.runSpec(j)
		if err == nil {
			e.computed.Add(1)
		}
		return out, err
	}
	for {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		if out, ok := e.loadFromStore(j.fingerprint); ok {
			// A peer finished this point (before we started, or while
			// we waited on its lease): adopt the stored result as-is.
			// It is already on disk, so finishJob must not rewrite it
			// (a rewrite would also reset its age for store GC).
			e.adopted.Add(1)
			j.mu.Lock()
			j.prePersisted = true
			j.mu.Unlock()
			j.reportProgress(1, 1)
			return out, nil
		}
		held, _, err := c.Claim(j.fingerprint)
		if held {
			// Claimed — but the point may have landed in the store
			// between the read above and the claim (the previous
			// holder persists before releasing): re-check before
			// spending the compute.
			if out, ok := e.loadFromStore(j.fingerprint); ok {
				c.Release(j.fingerprint)
				e.adopted.Add(1)
				j.mu.Lock()
				j.prePersisted = true
				j.mu.Unlock()
				j.reportProgress(1, 1)
				return out, nil
			}
			return e.computeHolding(j, true)
		}
		if err != nil {
			// The lease subsystem itself is failing: computing locally
			// without the lease is the safe fallback — at worst the
			// work is duplicated, which content addressing absorbs.
			return e.computeHolding(j, false)
		}
		// Count each job at most once, across requeue cycles too.
		j.mu.Lock()
		if !j.leaseWaited {
			j.leaseWaited = true
			e.leaseWaits.Add(1)
		}
		j.mu.Unlock()
		select {
		case <-j.ctx.Done():
			return nil, j.ctx.Err()
		case <-time.After(c.Poll()):
		}
		if e.hasPending() {
			// Rotate: let the slot work on something claimable. The
			// poll sleep above bounds how fast blocked jobs cycle, so
			// an all-blocked queue polls instead of spinning.
			return nil, errRequeue
		}
	}
}

// hasPending reports whether any job is waiting in the queue.
func (e *Engine) hasPending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending.Len() > 0
}

// requeue returns a lease-blocked job to the queue behind every job of
// its priority class (fresh sequence number, same priority, same ID).
func (e *Engine) requeue(j *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j.mu.Lock()
	j.state = Queued
	j.notifyLocked()
	j.mu.Unlock()
	e.seq++
	j.seq = e.seq
	heap.Push(&e.pending, j)
	e.cond.Signal()
}

// computeHolding runs j's spec, heartbeating the held lease while the
// computation is in flight and releasing it afterwards. The result is
// journaled and persisted before the release, so a peer whose claim
// succeeds next observes the stored record instead of recomputing.
func (e *Engine) computeHolding(j *Job, held bool) (*Output, error) {
	c := e.opts.Cluster
	if held {
		hbStop := make(chan struct{})
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			ticker := time.NewTicker(c.Heartbeat())
			defer ticker.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-ticker.C:
					// Best effort: a failed renewal (an extreme stall let
					// the TTL lapse) means a peer may duplicate the work,
					// which content addressing makes harmless.
					_ = c.Renew(j.fingerprint)
				}
			}
		}()
		defer func() {
			close(hbStop)
			<-hbDone
			c.Release(j.fingerprint)
		}()
	}
	out, err := e.runSpec(j)
	if err != nil || j.ctx.Err() != nil {
		return out, err
	}
	e.computed.Add(1)
	// Journal before persisting: a waiting peer adopts the record as
	// soon as it is visible and may finish the sweep, so the ledger
	// entry must already be there. Journal whether or not the lease was
	// held: a lease-less fallback compute is still the computation that
	// produced the stored record, and the ledger is create-if-absent per
	// key, so a racing duplicate collapses to the first reporter.
	c.RecordComputed(j.fingerprint)
	e.persist(j.fingerprint, out)
	j.mu.Lock()
	j.prePersisted = true
	j.mu.Unlock()
	return out, nil
}

// CancelFingerprint cancels every live job whose spec fingerprint is
// fp and that was submitted before the cutoff — the receiving half of
// cross-node sweep cancellation (the cluster watch loop calls it for
// each cancellation record). Jobs submitted at or after the cutoff —
// a deliberate resubmission of the same spec — are spared, so a stale
// marker can never kill a sweep's second run. Returns how many jobs
// were canceled.
func (e *Engine) CancelFingerprint(fp string, before time.Time) int {
	e.mu.Lock()
	ids := make([]string, 0, 1)
	for _, j := range e.order {
		if j.fingerprint != fp {
			continue
		}
		j.mu.Lock()
		match := !j.state.Terminal() && j.submitted.Before(before)
		j.mu.Unlock()
		if match {
			ids = append(ids, j.id)
		}
	}
	e.mu.Unlock()
	n := 0
	for _, id := range ids {
		if e.Cancel(id) {
			n++
		}
	}
	return n
}

// HasLiveFingerprint reports whether a non-terminal job with the given
// spec fingerprint is already tracked — what the adoption loop checks
// before submitting an announced sweep that this node may already be
// running (because the same spec was submitted here directly).
func (e *Engine) HasLiveFingerprint(fp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.order {
		if j.fingerprint != fp {
			continue
		}
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			return true
		}
	}
	return false
}

package cluster

import (
	"encoding/json"
	"time"

	"repro/internal/store"
)

// Backend is the set of lease/journal/announcement/discovery
// operations the engine, the service layer, and the daemon need from a
// cluster membership. *Member implements it, in-process on the node
// that hosts the arbiter and over the /v1/cluster/* routes everywhere
// else; the interface is the seam where tests and benchmarks wrap a
// member.
//
// The contract: leases are advisory (results are deterministic and
// content-addressed, so protocol races degrade to duplicate work, never
// wrong records), the journal is the exactly-once ledger, and
// announcements are idempotent per fingerprint.
type Backend interface {
	// NodeID returns this node's identity.
	NodeID() string
	// Role returns this node's cluster role.
	Role() Role
	// LeaseTTL returns the configured lease TTL.
	LeaseTTL() time.Duration
	// Heartbeat returns the lease/registry renewal cadence.
	Heartbeat() time.Duration
	// Poll returns the wait/adoption polling cadence.
	Poll() time.Duration
	// Leave withdraws this node from the cluster.
	Leave()

	// Claim attempts to take this node's lease on key; when it fails it
	// returns the lease currently in the way.
	Claim(key string) (bool, store.Lease, error)
	// Renew extends this node's lease on key; ErrFenced means the lease
	// lapsed or was reclaimed.
	Renew(key string) error
	// Release drops this node's lease on key, if still held.
	Release(key string)

	// RecordComputed journals that this node computed key; best-effort.
	RecordComputed(key string)
	// Journal returns the cluster-wide compute ledger.
	Journal() ([]JournalEntry, error)

	// AnnounceSweep publishes a sweep to the cluster, create-if-absent.
	AnnounceSweep(fp, kind string, spec json.RawMessage, priority int) error
	// CompleteSweep retires a sweep's announcement; idempotent.
	CompleteSweep(fp string)
	// Announcements returns the currently published sweeps, oldest first.
	Announcements() ([]Announcement, error)

	// CancelSweep publishes a cross-node cancellation for fp.
	CancelSweep(fp string) error
	// Cancellations returns the live cancellation records.
	Cancellations() ([]CancelRecord, error)

	// Nodes returns the registry view of the cluster's members.
	Nodes() ([]NodeInfo, error)
}

// WatchHooks connect the cluster watch loop to the local engine.
type WatchHooks struct {
	// HasResult reports whether the sweep aggregate for fp is already
	// available, so a finished announcement is retired instead of
	// adopted. nil means "never".
	HasResult func(fp string) bool
	// Submit adopts one announced sweep into the local engine;
	// returning an error (a full queue, say) leaves the announcement
	// unadopted so the next scan retries. nil disables adoption.
	Submit func(Announcement) error
	// Cancel applies one cross-node cancellation: cancel local live
	// jobs for fp submitted before canceledAt. nil disables
	// cancellation propagation.
	Cancel func(fp string, canceledAt time.Time)
}

// Watch is the cluster background loop, generic over Backend: on the
// member's poll cadence it adopts foreign announcements (on roles
// that adopt) and propagates cross-node cancellations (on every
// role), blocking until stop closes.
func Watch(b Backend, stop <-chan struct{}, h WatchHooks) {
	w := &watcher{b: b, h: h,
		seen: make(map[string]bool), applied: make(map[string]time.Time)}
	ticker := time.NewTicker(b.Poll())
	defer ticker.Stop()
	for {
		w.scan()
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
	}
}

type watcher struct {
	b Backend
	h WatchHooks
	// seen tracks fingerprints already handed to Submit while their
	// announcement is live, so each sweep is adopted exactly once.
	seen map[string]bool
	// applied tracks the latest cancellation timestamp acted on per
	// fingerprint, so records are not re-applied every scan.
	applied map[string]time.Time
}

func (w *watcher) scan() {
	if w.b.Role().Adopts() && w.h.Submit != nil {
		w.adoptOnce()
	}
	if w.h.Cancel != nil {
		w.cancelOnce()
	}
}

func (w *watcher) adoptOnce() {
	anns, err := w.b.Announcements()
	if err != nil {
		return
	}
	current := make(map[string]bool, len(anns))
	for _, a := range anns {
		current[a.Fingerprint] = true
		if a.Origin == w.b.NodeID() || w.seen[a.Fingerprint] {
			continue
		}
		if w.h.HasResult != nil && w.h.HasResult(a.Fingerprint) {
			// The sweep's aggregate is already stored: nothing to drain.
			w.b.CompleteSweep(a.Fingerprint)
			w.seen[a.Fingerprint] = true
			continue
		}
		if err := w.h.Submit(a); err != nil {
			continue // retried on the next scan
		}
		w.seen[a.Fingerprint] = true
	}
	// Forget fingerprints whose announcement has been retired, so a
	// long-lived runner re-adopts a sweep that is legitimately
	// re-announced later (e.g. store GC evicted its records and the
	// origin re-ran it).
	for fp := range w.seen {
		if !current[fp] {
			delete(w.seen, fp)
		}
	}
}

func (w *watcher) cancelOnce() {
	recs, err := w.b.Cancellations()
	if err != nil {
		return
	}
	current := make(map[string]bool, len(recs))
	for _, r := range recs {
		current[r.Fingerprint] = true
		if r.Node == w.b.NodeID() {
			continue // the originator already canceled locally
		}
		if at, ok := w.applied[r.Fingerprint]; ok && !r.CanceledAt.After(at) {
			continue
		}
		w.h.Cancel(r.Fingerprint, r.CanceledAt)
		w.applied[r.Fingerprint] = r.CanceledAt
	}
	for fp := range w.applied {
		if !current[fp] {
			delete(w.applied, fp)
		}
	}
}

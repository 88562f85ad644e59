package cluster

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/store"
)

// arbiterAPI is what a member needs from the arbiter. The arbiter
// implements it in-process on the node that hosts it; remoteArbiter
// implements it over the /v1/cluster/* routes everywhere else.
type arbiterAPI interface {
	AcquireLease(key, holder string, ttl time.Duration) (store.Lease, bool, error)
	RenewLease(key, holder string, token int64, ttl time.Duration) (store.Lease, error)
	ReleaseLease(key, holder string, token int64) error
	RegisterNode(n NodeInfo) error
	UnregisterNode(id string)
	Nodes() ([]NodeInfo, error)
	RecordComputed(key, node string) error
	Journal() ([]JournalEntry, error)
	Announce(origin, fp, kind string, spec json.RawMessage, priority int) error
	CompleteSweep(fp string)
	Announcements() ([]Announcement, error)
	Cancel(node, fp string) error
	Cancellations() ([]CancelRecord, error)
}

// Member is one node's membership in the cluster and the one Backend
// implementation: its identity, the tokens of the leases it holds, and
// the heartbeat that keeps its registry record fresh. It reaches the
// arbiter in-process on the node that hosts it (Join) and over HTTP
// everywhere else (JoinHTTP); every method is the same code either way.
// All methods are safe for concurrent use.
type Member struct {
	cfg     Config
	arb     arbiterAPI
	host    *arbiter     // the arbiter this member hosts; nil when it joined one
	rs      *RemoteStore // the coordinator's store over RPC; nil in-process
	started time.Time

	mu sync.Mutex
	// held maps each key this node holds, or is claiming, to its lease.
	// A claim in flight has token 0, which no arbiter mints.
	held map[string]store.Lease

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

var _ Backend = (*Member)(nil)

// Join makes this process the cluster's arbiter host: it takes
// ownership of <store dir>/cluster — failing if another process owns
// it — loads the leases, token counter, announcements, cancellations
// and journal a previous owner left, and returns this node's member,
// registered and heartbeating. Leave releases the ownership.
func Join(st *store.Store, cfg Config) (*Member, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a, err := openArbiter(filepath.Join(st.Dir(), "cluster"), cfg, time.Now)
	if err != nil {
		return nil, err
	}
	m, err := startMember(cfg, a)
	if err != nil {
		a.close()
		return nil, err
	}
	m.host = a
	return m, nil
}

// startMember registers a member with arb and starts its heartbeat.
// The first registration is synchronous: an unreachable arbiter fails
// the join instead of surfacing later as lease errors.
func startMember(cfg Config, arb arbiterAPI) (*Member, error) {
	m := &Member{
		cfg:     cfg,
		arb:     arb,
		started: time.Now().UTC(),
		held:    make(map[string]store.Lease),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := m.register(); err != nil {
		return nil, err
	}
	go m.heartbeatLoop()
	return m, nil
}

func (m *Member) register() error {
	return m.arb.RegisterNode(NodeInfo{ID: m.cfg.NodeID, Role: m.cfg.Role, Addr: m.cfg.Addr,
		StartedAt: m.started, Heartbeat: m.cfg.Heartbeat})
}

func (m *Member) heartbeatLoop() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			_ = m.register() // best effort; a missed beat only ages liveness
		}
	}
}

// Leave stops the heartbeat, unregisters the node (best effort: a lost
// deregistration leaves a record to go stale) and, on the arbiter's
// host, releases the ownership of the directory. Held point leases are
// left to expire; a graceful shutdown releases them through the engine
// before calling Leave.
func (m *Member) Leave() {
	m.stopOnce.Do(func() {
		close(m.stop)
		<-m.done
		m.arb.UnregisterNode(m.cfg.NodeID)
		if m.host != nil {
			m.host.close()
		}
	})
}

// NodeID returns this node's identity.
func (m *Member) NodeID() string { return m.cfg.NodeID }

// Role returns this node's role.
func (m *Member) Role() Role { return m.cfg.Role }

// LeaseTTL returns the configured lease TTL.
func (m *Member) LeaseTTL() time.Duration { return m.cfg.LeaseTTL }

// Heartbeat returns the lease/registry renewal cadence.
func (m *Member) Heartbeat() time.Duration { return m.cfg.Heartbeat }

// Poll returns the wait/adoption polling cadence.
func (m *Member) Poll() time.Duration { return m.cfg.Poll }

// RemoteStore returns the coordinator's result store over RPC, which a
// member that joined over HTTP reads and pushes results through; nil
// for an in-process member, whose engine uses the store directly.
func (m *Member) RemoteStore() *RemoteStore { return m.rs }

// Claim attempts to take this node's lease on key. A key this node
// already holds, or is claiming, is busy without asking the arbiter:
// two workers of one node never both win, although the arbiter grants a
// holder's repeated acquire (the retry of a lost response). On success
// the lease's fencing token is kept for the renew and release.
func (m *Member) Claim(key string) (bool, store.Lease, error) {
	m.mu.Lock()
	if l, busy := m.held[key]; busy {
		m.mu.Unlock()
		return false, l, nil
	}
	m.held[key] = store.Lease{Key: key, Holder: m.cfg.NodeID}
	m.mu.Unlock()
	lease, ok, err := m.arb.AcquireLease(key, m.cfg.NodeID, m.cfg.LeaseTTL)
	m.mu.Lock()
	if ok {
		m.held[key] = lease
	} else {
		delete(m.held, key)
	}
	m.mu.Unlock()
	return ok, lease, err
}

// token returns the fencing token of the lease this node holds on key,
// or 0 when it holds none.
func (m *Member) token(key string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held[key].Token
}

// forget drops key from the held leases if it still carries token.
func (m *Member) forget(key string, token int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held[key].Token == token {
		delete(m.held, key)
	}
}

// Renew extends this node's lease on key. ErrFenced means the lease
// lapsed or was reclaimed while this node stalled.
func (m *Member) Renew(key string) error {
	token := m.token(key)
	if token == 0 {
		return ErrFenced
	}
	_, err := m.arb.RenewLease(key, m.cfg.NodeID, token, m.cfg.LeaseTTL)
	if errors.Is(err, ErrFenced) {
		m.forget(key, token)
	}
	return err
}

// Release drops this node's lease on key, if still held. Best effort:
// an unreachable arbiter just lets the lease expire, and a fencing
// rejection means it was already reclaimed. The key stays busy for this
// node's other workers until the arbiter has answered.
func (m *Member) Release(key string) {
	token := m.token(key)
	if token == 0 {
		return
	}
	_ = m.arb.ReleaseLease(key, m.cfg.NodeID, token)
	m.forget(key, token)
}

// RecordComputed journals that this node computed key. Best effort:
// journal writes never fail the computation they describe.
func (m *Member) RecordComputed(key string) { _ = m.arb.RecordComputed(key, m.cfg.NodeID) }

// Journal returns the cluster-wide compute ledger.
func (m *Member) Journal() ([]JournalEntry, error) { return m.arb.Journal() }

// AnnounceSweep publishes a sweep to the cluster, create-if-absent.
func (m *Member) AnnounceSweep(fp, kind string, spec json.RawMessage, priority int) error {
	return m.arb.Announce(m.cfg.NodeID, fp, kind, spec, priority)
}

// CompleteSweep retires a sweep's announcement; idempotent.
func (m *Member) CompleteSweep(fp string) { m.arb.CompleteSweep(fp) }

// Announcements returns the currently published sweeps, oldest first.
func (m *Member) Announcements() ([]Announcement, error) { return m.arb.Announcements() }

// CancelSweep publishes a cross-node cancellation for fp.
func (m *Member) CancelSweep(fp string) error { return m.arb.Cancel(m.cfg.NodeID, fp) }

// Cancellations returns the live cancellation records.
func (m *Member) Cancellations() ([]CancelRecord, error) { return m.arb.Cancellations() }

// Nodes returns the arbiter's registry view of the cluster.
func (m *Member) Nodes() ([]NodeInfo, error) { return m.arb.Nodes() }

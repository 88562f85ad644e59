// Package cluster turns a set of cobrad instances into a work-sharing
// cluster coordinated by one arbiter. The node that owns the result
// store (-data-dir, no -cluster-url) hosts the arbiter; every member
// claims through it with the same code — the coordinator's own engine
// in-process, every -cluster-url runner over the /v1/cluster/* routes.
// The arbiter keeps, under one mutex:
//
//   - point leases: acquire, renew and release are each one
//     compare-and-swap on (holder, token). Tokens come from a persisted
//     counter, so they strictly increase across holders and restarts
//     whatever the wall clock does;
//   - the node registry: members re-register every heartbeat and the
//     arbiter stamps last-seen with its own clock;
//   - sweep announcements: a sweep submitted to any node is published
//     under its fingerprint, and runner nodes adopt it into their own
//     engines, so one sweep drains across every machine;
//   - cross-node cancellations;
//   - the compute journal: each point a node actually computes (as
//     opposed to adopting from the store) leaves one record, first
//     reporter wins — the cluster-wide exactly-once ledger.
//
// Leases are advisory: results are content-addressed and deterministic,
// so any protocol race degrades to duplicate work, never to a wrong
// record. A node that dies holding leases simply stops renewing them;
// survivors reclaim the expired leases and re-run only the points the
// dead node never stored.
//
// On-disk layout, beside the store's results/ tree:
//
//	<data-dir>/cluster/owner.lock    flock(2) held by the arbiter's process
//	<data-dir>/cluster/state.json    token counter, leases, announcements, cancellations
//	<data-dir>/cluster/journal.log   compute journal, one JSON record per line, append-only
//
// state.json is rewritten (temp file + rename) on every mutation it
// holds; the journal is only ever appended to. The registry is soft
// state that heartbeats rebuild, so it is not persisted.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Role is a node's cluster role.
type Role string

// Cluster roles. A coordinator hosts the arbiter, announces the sweeps
// it receives and computes under leases but does not adopt foreign
// announcements; a runner joins the coordinator and additionally adopts
// announced sweeps into its own engine (every node announces, runners
// adopt).
const (
	RoleCoordinator Role = "coordinator"
	RoleRunner      Role = "runner"
)

// Valid reports whether r names a known role.
func (r Role) Valid() bool { return r == RoleCoordinator || r == RoleRunner }

// Adopts reports whether nodes with this role adopt foreign sweep
// announcements.
func (r Role) Adopts() bool { return r == RoleRunner }

// Default intervals. LeaseTTL trades reclaim latency against tolerance
// for stalls: a dead node's points become reclaimable one TTL after
// its last renewal.
const (
	DefaultLeaseTTL = 15 * time.Second
)

// Config configures a cluster member. Zero fields select defaults.
type Config struct {
	// NodeID identifies this node in leases, the registry, and the
	// journal; defaults to "<hostname>-<pid>".
	NodeID string
	// Role selects the node's behavior; defaults to RoleRunner.
	Role Role
	// Addr is the node's advertised API address, informational only.
	Addr string
	// LeaseTTL is how long a point lease lives between heartbeat
	// renewals; defaults to DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Heartbeat is the renewal cadence for held leases and the node
	// record; defaults to LeaseTTL/3.
	Heartbeat time.Duration
	// Poll is the cadence at which waiting workers re-check foreign
	// leases and the adoption loop re-scans announcements; defaults to
	// LeaseTTL/10, clamped to [50ms, 1s].
	Poll time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.NodeID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "node"
		}
		c.NodeID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Role == "" {
		c.Role = RoleRunner
	}
	if !c.Role.Valid() {
		return c, fmt.Errorf("cluster: unknown role %q (valid: coordinator, runner)", c.Role)
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.Poll <= 0 {
		c.Poll = c.LeaseTTL / 10
		if c.Poll < 50*time.Millisecond {
			c.Poll = 50 * time.Millisecond
		}
		if c.Poll > time.Second {
			c.Poll = time.Second
		}
	}
	return c, nil
}

// NodeInfo is the registry view of one cluster member.
type NodeInfo struct {
	ID        string    `json:"id"`
	Role      Role      `json:"role"`
	Addr      string    `json:"addr,omitempty"`
	StartedAt time.Time `json:"started_at"`
	LastSeen  time.Time `json:"last_seen"`
	// Heartbeat is the member's renewal cadence, so liveness is judged
	// against the member's own clock period, not the arbiter's.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
	// Alive reports whether the node's last heartbeat is recent (three
	// of its own heartbeat intervals); a killed node goes stale, it
	// never un-registers.
	Alive bool `json:"alive"`
}

// Announcement is one sweep published to the cluster's shared queue.
type Announcement struct {
	// Fingerprint is the sweep spec's content address — also the
	// announcement's identity, so re-announcing is idempotent.
	Fingerprint string `json:"fingerprint"`
	// Origin is the node that received the submission.
	Origin string `json:"origin"`
	// Kind is the engine job kind, always "sweep" today.
	Kind string `json:"kind"`
	// Priority is the submission priority, propagated to adopters.
	Priority int `json:"priority"`
	// Spec is the raw sweep spec JSON, decodable with
	// engine.DecodeSpec(Kind, Spec).
	Spec json.RawMessage `json:"spec"`
	// AnnouncedAt is when the arbiter published the sweep.
	AnnouncedAt time.Time `json:"announced_at"`
}

// CancelRecord is one cross-node cancellation: every member that sees
// it cancels its local live jobs for the fingerprint that were
// submitted before CanceledAt — later resubmissions of the same spec
// are deliberately spared.
type CancelRecord struct {
	Fingerprint string    `json:"fingerprint"`
	Node        string    `json:"node"`
	CanceledAt  time.Time `json:"canceled_at"`
}

// JournalEntry records one point actually computed (not adopted) by a
// node: the cluster's exactly-once ledger. Each key appears at most
// once; the first reporter keeps the attribution.
type JournalEntry struct {
	Key         string    `json:"key"`
	Node        string    `json:"node"`
	CompletedAt time.Time `json:"completed_at"`
}

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/retry"
	"repro/internal/store"
)

// Wire types of the /v1/cluster/* protocol, shared by remoteArbiter and
// the service handlers so the two halves cannot drift.
type (
	// LeaseAcquireRequest is the POST /v1/cluster/leases body.
	LeaseAcquireRequest struct {
		Key       string `json:"key"`
		Holder    string `json:"holder"`
		TTLMillis int64  `json:"ttl_ms,omitempty"`
	}
	// LeaseMutateRequest is the renew/release body; Token fences the
	// mutation to the acquisition that minted it.
	LeaseMutateRequest struct {
		Holder    string `json:"holder"`
		Token     int64  `json:"token"`
		TTLMillis int64  `json:"ttl_ms,omitempty"`
	}
	// LeaseResponse reports the acquire/renew outcome.
	LeaseResponse struct {
		Acquired bool        `json:"acquired"`
		Lease    store.Lease `json:"lease"`
	}
	// JournalRecordRequest is the POST /v1/cluster/journal body.
	JournalRecordRequest struct {
		Key  string `json:"key"`
		Node string `json:"node"`
	}
	// AnnounceRequest is the POST /v1/cluster/sweeps body.
	AnnounceRequest struct {
		Fingerprint string          `json:"fingerprint"`
		Origin      string          `json:"origin"`
		Kind        string          `json:"kind"`
		Priority    int             `json:"priority"`
		Spec        json.RawMessage `json:"spec"`
	}
	// CancelRequest is the POST /v1/cluster/cancels body.
	CancelRequest struct {
		Fingerprint string `json:"fingerprint"`
		Node        string `json:"node"`
	}
)

// HTTPConfig configures a cluster member that joins the coordinator
// over the network.
type HTTPConfig struct {
	// BaseURL is the coordinator's API base, e.g. "http://10.0.0.1:8080".
	BaseURL string
	// NodeID, Addr, LeaseTTL, Heartbeat, Poll behave exactly as in
	// Config. Role defaults to RoleRunner and must not be
	// RoleCoordinator — the coordinator is the node the URL points at.
	NodeID    string
	Role      Role
	Addr      string
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	Poll      time.Duration
	// Client optionally overrides the HTTP client — the hook where the
	// fault-injection transport wraps in. Defaults to a 15s-timeout
	// client.
	Client *http.Client
	// Retry optionally overrides the RPC retry policy. The default
	// rides out a few seconds of coordinator outage or partition before
	// an operation is reported failed.
	Retry retry.Policy
}

// JoinHTTP registers this process with the coordinator at cfg.BaseURL
// and returns its member, whose every arbiter call is an RPC and whose
// results travel through RemoteStore. Call Leave on shutdown.
func JoinHTTP(cfg HTTPConfig) (*Member, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("cluster: join over http: base url required")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("cluster: join over http: bad base url %q: %w", cfg.BaseURL, err)
	}
	if cfg.Role == "" {
		cfg.Role = RoleRunner
	}
	if cfg.Role == RoleCoordinator {
		return nil, fmt.Errorf("cluster: a coordinator hosts the arbiter; it cannot join one over http")
	}
	inner, err := Config{
		NodeID: cfg.NodeID, Role: cfg.Role, Addr: cfg.Addr,
		LeaseTTL: cfg.LeaseTTL, Heartbeat: cfg.Heartbeat, Poll: cfg.Poll,
	}.withDefaults()
	if err != nil {
		return nil, err
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 15 * time.Second}
	}
	policy := cfg.Retry
	if policy.MaxAttempts == 0 && policy.BaseDelay == 0 {
		policy = retry.Policy{MaxAttempts: 8, BaseDelay: 100 * time.Millisecond,
			MaxDelay: time.Second, Jitter: 0.2}
	}
	rpc := newRPCClient(cfg.BaseURL, hc, policy)
	m, err := startMember(inner, remoteArbiter{rpc})
	if err != nil {
		return nil, fmt.Errorf("cluster: join %s: %w", cfg.BaseURL, err)
	}
	m.rs = &RemoteStore{rpc: rpc, known: make(map[string]struct{})}
	return m, nil
}

// remoteArbiter is the arbiter as a member that joined over HTTP sees
// it: each operation is one /v1/cluster/* RPC, retried on transient
// failures. Every mutation is idempotent on the arbiter's side, so a
// retry after a lost response is always safe.
type remoteArbiter struct{ rpc *rpcClient }

func leasePath(key, op string) string {
	return "/v1/cluster/leases/" + url.PathEscape(key) + "/" + op
}

// fenced maps the arbiter's 409 lease_lost answer back to ErrFenced.
func fenced(err error) error {
	var re *rpcError
	if errors.As(err, &re) && re.Status == http.StatusConflict {
		return ErrFenced
	}
	return err
}

func (r remoteArbiter) AcquireLease(key, holder string, ttl time.Duration) (store.Lease, bool, error) {
	var resp LeaseResponse
	err := r.rpc.do(context.Background(), http.MethodPost, "/v1/cluster/leases",
		LeaseAcquireRequest{Key: key, Holder: holder, TTLMillis: ttl.Milliseconds()}, &resp)
	return resp.Lease, resp.Acquired, err
}

func (r remoteArbiter) RenewLease(key, holder string, token int64, ttl time.Duration) (store.Lease, error) {
	var resp LeaseResponse
	err := r.rpc.do(context.Background(), http.MethodPost, leasePath(key, "renew"),
		LeaseMutateRequest{Holder: holder, Token: token, TTLMillis: ttl.Milliseconds()}, &resp)
	return resp.Lease, fenced(err)
}

func (r remoteArbiter) ReleaseLease(key, holder string, token int64) error {
	return fenced(r.rpc.do(context.Background(), http.MethodPost, leasePath(key, "release"),
		LeaseMutateRequest{Holder: holder, Token: token}, nil))
}

// RegisterNode is the heartbeat; a bounded wait keeps a hung
// coordinator from stalling the heartbeat loop (and Leave) for long.
func (r remoteArbiter) RegisterNode(n NodeInfo) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return r.rpc.do(ctx, http.MethodPost, "/v1/cluster/nodes", n, nil)
}

func (r remoteArbiter) UnregisterNode(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = r.rpc.do(ctx, http.MethodDelete, "/v1/cluster/nodes/"+url.PathEscape(id), nil, nil)
}

func (r remoteArbiter) Nodes() ([]NodeInfo, error) {
	var resp struct {
		Nodes []NodeInfo `json:"nodes"`
	}
	err := r.rpc.do(context.Background(), http.MethodGet, "/v1/cluster/nodes", nil, &resp)
	return resp.Nodes, err
}

func (r remoteArbiter) RecordComputed(key, node string) error {
	return r.rpc.do(context.Background(), http.MethodPost, "/v1/cluster/journal",
		JournalRecordRequest{Key: key, Node: node}, nil)
}

func (r remoteArbiter) Journal() ([]JournalEntry, error) {
	var resp struct {
		Entries []JournalEntry `json:"entries"`
	}
	err := r.rpc.do(context.Background(), http.MethodGet, "/v1/cluster/journal", nil, &resp)
	return resp.Entries, err
}

func (r remoteArbiter) Announce(origin, fp, kind string, spec json.RawMessage, priority int) error {
	return r.rpc.do(context.Background(), http.MethodPost, "/v1/cluster/sweeps",
		AnnounceRequest{Fingerprint: fp, Origin: origin, Kind: kind, Priority: priority, Spec: spec}, nil)
}

func (r remoteArbiter) CompleteSweep(fp string) {
	_ = r.rpc.do(context.Background(), http.MethodDelete, "/v1/cluster/sweeps/"+url.PathEscape(fp), nil, nil)
}

func (r remoteArbiter) Announcements() ([]Announcement, error) {
	var resp struct {
		Announcements []Announcement `json:"announcements"`
	}
	err := r.rpc.do(context.Background(), http.MethodGet, "/v1/cluster/sweeps", nil, &resp)
	return resp.Announcements, err
}

func (r remoteArbiter) Cancel(node, fp string) error {
	return r.rpc.do(context.Background(), http.MethodPost, "/v1/cluster/cancels",
		CancelRequest{Fingerprint: fp, Node: node}, nil)
}

func (r remoteArbiter) Cancellations() ([]CancelRecord, error) {
	var resp struct {
		Cancellations []CancelRecord `json:"cancellations"`
	}
	err := r.rpc.do(context.Background(), http.MethodGet, "/v1/cluster/cancels", nil, &resp)
	return resp.Cancellations, err
}

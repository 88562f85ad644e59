package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/process"
)

// Error is the service's uniform error envelope, decorated with the
// HTTP status it arrived under.
type Error struct {
	// StatusCode is the HTTP response status.
	StatusCode int `json:"-"`
	// Code is the machine-readable identifier (bad_request, not_found,
	// not_finished, job_failed, unavailable, internal).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Detail, when present, is an actionable hint.
	Detail string `json:"detail,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("cobrad: HTTP %d", e.StatusCode)
	}
	return fmt.Sprintf("cobrad: %s: %s", e.Code, e.Message)
}

// IsRetryable reports whether the error is transient backpressure
// (queue full, shutdown in progress) rather than a caller mistake.
func (e *Error) IsRetryable() bool { return e.Code == "unavailable" }

// Client is a cobrad API client. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation). The default client has no timeout:
// per-call deadlines come from the caller's context, which must also
// bound long-lived Follow streams.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New creates a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base: strings.TrimRight(u.String(), "/"),
		hc:   &http.Client{},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// do issues one JSON request and decodes the response into out (when
// non-nil). Non-2xx responses decode the error envelope into *Error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rdr io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		rdr = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: read %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// decodeError converts a non-2xx body to *Error, degrading gracefully
// when the body is not the expected envelope (a proxy error page, say).
func decodeError(status int, data []byte) error {
	var env struct {
		Error Error `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		e := env.Error
		e.StatusCode = status
		return &e
	}
	return &Error{StatusCode: status, Message: strings.TrimSpace(string(data))}
}

// Health returns the daemon's liveness document.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Processes returns the registered process catalog with parameter
// schemas: the discovery half of the v1 contract.
func (c *Client) Processes(ctx context.Context) ([]process.Info, error) {
	var out struct {
		Processes []process.Info `json:"processes"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/processes", nil, &out); err != nil {
		return nil, err
	}
	return out.Processes, nil
}

// NodesView is the GET /v1/nodes discovery document: whether the
// daemon is clustered, its own identity and role, and the registered
// members with heartbeat-derived liveness.
type NodesView struct {
	// Cluster reports whether the daemon is a cluster member at all.
	Cluster bool `json:"cluster"`
	// Node is the serving daemon's own node ID (clustered daemons only).
	Node string `json:"node,omitempty"`
	// Role is the serving daemon's cluster role.
	Role cluster.Role `json:"role,omitempty"`
	// Nodes lists every registered member, sorted by ID.
	Nodes []cluster.NodeInfo `json:"nodes"`
}

// Nodes returns the daemon's cluster membership view. A single-node
// daemon answers with Cluster=false and an empty list.
func (c *Client) Nodes(ctx context.Context) (NodesView, error) {
	var out NodesView
	if err := c.do(ctx, http.MethodGet, "/v1/nodes", nil, &out); err != nil {
		return NodesView{}, err
	}
	return out, nil
}

// Journal returns the cluster's compute ledger: one entry per point a
// node computed while holding its lease, the record behind
// exactly-once accounting. A daemon that is not a cluster member
// answers 503 unavailable.
func (c *Client) Journal(ctx context.Context) ([]cluster.JournalEntry, error) {
	var out struct {
		Entries []cluster.JournalEntry `json:"entries"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/cluster/journal", nil, &out); err != nil {
		return nil, err
	}
	return out.Entries, nil
}

// Submit submits one job of the given kind ("process", "experiment",
// "sweep"). spec may be any JSON-marshalable
// value shaped like the corresponding engine spec — typically
// *engine.ProcessSpec. Higher priority runs first.
func (c *Client) Submit(ctx context.Context, kind string, spec any, priority int) (engine.Status, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return engine.Status{}, fmt.Errorf("client: encode spec: %w", err)
	}
	req := map[string]any{"kind": kind, "spec": json.RawMessage(specJSON)}
	if priority != 0 {
		req["priority"] = priority
	}
	var out struct {
		Job engine.Status `json:"job"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return engine.Status{}, err
	}
	return out.Job, nil
}

// SubmitProcess submits a generic process job.
func (c *Client) SubmitProcess(ctx context.Context, spec engine.ProcessSpec, priority int) (engine.Status, error) {
	return c.Submit(ctx, "process", spec, priority)
}

// SubmitSweep submits a server-side sweep, which fans out into child
// point jobs on the daemon's worker pool.
func (c *Client) SubmitSweep(ctx context.Context, spec engine.SweepSpec, priority int) (engine.Status, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return engine.Status{}, fmt.Errorf("client: encode sweep spec: %w", err)
	}
	req := map[string]any{"spec": json.RawMessage(specJSON)}
	if priority != 0 {
		req["priority"] = priority
	}
	var out struct {
		Sweep engine.Status `json:"sweep"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &out); err != nil {
		return engine.Status{}, err
	}
	return out.Sweep, nil
}

// Job returns the current status of one job.
func (c *Client) Job(ctx context.Context, id string) (engine.Status, error) {
	var out struct {
		Job engine.Status `json:"job"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return engine.Status{}, err
	}
	return out.Job, nil
}

// Jobs lists jobs, most recent first. A non-empty status filters to
// that lifecycle state (queued, running, done, failed, canceled).
func (c *Client) Jobs(ctx context.Context, status string) ([]engine.Status, error) {
	path := "/v1/jobs"
	if status != "" {
		path += "?status=" + url.QueryEscape(status)
	}
	var out struct {
		Jobs []engine.Status `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Sweep returns a sweep's status together with its child point
// statuses, in point order.
func (c *Client) Sweep(ctx context.Context, id string) (engine.Status, []engine.Status, error) {
	var out struct {
		Sweep    engine.Status   `json:"sweep"`
		Children []engine.Status `json:"children"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+url.PathEscape(id), nil, &out); err != nil {
		return engine.Status{}, nil, err
	}
	return out.Sweep, out.Children, nil
}

// Result returns the output of a finished job along with its terminal
// status. Requesting the result of an unfinished job returns *Error
// with code "not_finished".
func (c *Client) Result(ctx context.Context, id string) (*engine.Output, engine.Status, error) {
	var out struct {
		Job    engine.Status  `json:"job"`
		Result *engine.Output `json:"result"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &out); err != nil {
		return nil, engine.Status{}, err
	}
	return out.Result, out.Job, nil
}

// Cancel cancels a queued or running job, reporting whether the job
// existed and was not already terminal.
func (c *Client) Cancel(ctx context.Context, id string) (bool, error) {
	var out struct {
		Canceled bool `json:"canceled"`
	}
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return false, err
	}
	return out.Canceled, nil
}

// Wait polls the job until it reaches a terminal state or ctx is done,
// returning the terminal status. Prefer Follow when live progress
// matters; Wait is the fallback for environments that cannot hold a
// streaming response open.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (engine.Status, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return engine.Status{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return engine.Status{}, ctx.Err()
		}
	}
}

// Run is the synchronous convenience loop: submit the spec, follow its
// SSE status stream to the terminal state (calling onStatus, when
// non-nil, with each update), and fetch the result. It returns the
// output and the terminal status; a failed or canceled job returns the
// job error.
func (c *Client) Run(ctx context.Context, kind string, spec any, onStatus func(engine.Status)) (*engine.Output, engine.Status, error) {
	st, err := c.Submit(ctx, kind, spec, 0)
	if err != nil {
		return nil, engine.Status{}, err
	}
	return c.followResult(ctx, st, onStatus)
}

// RunSweep is Run for sweep specs submitted via /v1/sweeps.
func (c *Client) RunSweep(ctx context.Context, spec engine.SweepSpec, onStatus func(engine.Status)) (*engine.Output, engine.Status, error) {
	st, err := c.SubmitSweep(ctx, spec, 0)
	if err != nil {
		return nil, engine.Status{}, err
	}
	return c.followResult(ctx, st, onStatus)
}

// Execute runs spec to completion: on the cobrad daemon at server when
// server is non-empty (submit over HTTP and follow to the result), or
// on a throwaway in-process engine otherwise. The local engine has one
// worker: a process job already fans its trials out across every core,
// so concurrent jobs would only oversubscribe the CPU, and a sweep
// throttles its own fan-out against the queue. A done ctx cancels the
// local engine's running and queued jobs before Execute returns.
// cobractl's batch commands (cover, experiments, run) print identical
// output either way.
func Execute(ctx context.Context, server string, spec engine.Spec) (*engine.Output, error) {
	if server != "" {
		c, err := New(server)
		if err != nil {
			return nil, err
		}
		out, _, err := c.Run(ctx, spec.Kind(), spec, nil)
		return out, err
	}
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Shutdown(ctx)
	return eng.RunSync(ctx, spec)
}

func (c *Client) followResult(ctx context.Context, st engine.Status, onStatus func(engine.Status)) (*engine.Output, engine.Status, error) {
	final := st
	if !st.State.Terminal() {
		var err error
		final, err = c.Follow(ctx, st.ID, onStatus)
		if err != nil {
			return nil, engine.Status{}, err
		}
	} else if onStatus != nil {
		onStatus(st)
	}
	if final.State != engine.Done {
		return nil, final, fmt.Errorf("client: job %s %s: %s", final.ID, final.State, final.Error)
	}
	out, _, err := c.Result(ctx, final.ID)
	if err != nil {
		return nil, final, err
	}
	return out, final, nil
}

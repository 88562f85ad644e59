// HTTP lease semantics: the /v1/cluster/leases* routes enforce
// holder-only renewal, fencing-token rejection of stale mutations, and
// single-winner steals of expired leases — end to end through the real
// service handlers.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/cluster/faulttransport"
	"repro/internal/engine"
	"repro/internal/process"
)

// postJSON posts body to url and decodes the response into out (when
// non-nil), returning the HTTP status and the error code if the
// response is the service error envelope.
func postJSON(t *testing.T, url string, body, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode >= 400 {
		_ = dec.Decode(&envelope)
		return resp.StatusCode, envelope.Error.Code
	}
	if out != nil {
		if err := dec.Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode, ""
}

func acquire(t *testing.T, base, key, holder string, ttl time.Duration) (cluster.LeaseResponse, int) {
	t.Helper()
	var lr cluster.LeaseResponse
	code, _ := postJSON(t, base+"/v1/cluster/leases",
		cluster.LeaseAcquireRequest{Key: key, Holder: holder, TTLMillis: ttl.Milliseconds()}, &lr)
	return lr, code
}

// TestHTTPLeaseHolderOnlyRenewal pins that only the current holder,
// presenting the token minted at acquisition, can renew.
func TestHTTPLeaseHolderOnlyRenewal(t *testing.T) {
	coord := startCoordinator(t, 1)
	base := coord.ts.URL
	const key = "lease-renewal-point"

	lr, code := acquire(t, base, key, "node-a", time.Second)
	if code != http.StatusOK || !lr.Acquired || lr.Lease.Token == 0 {
		t.Fatalf("acquire = %d %+v, want granted with a token", code, lr)
	}

	renewURL := base + "/v1/cluster/leases/" + key + "/renew"
	// A different node, even guessing the right token, is fenced out.
	if code, ec := postJSON(t, renewURL,
		cluster.LeaseMutateRequest{Holder: "node-b", Token: lr.Lease.Token}, nil); code != http.StatusConflict || ec != "lease_lost" {
		t.Fatalf("foreign renew = %d %q, want 409 lease_lost", code, ec)
	}
	// The holder with a stale token is fenced out too.
	if code, ec := postJSON(t, renewURL,
		cluster.LeaseMutateRequest{Holder: "node-a", Token: lr.Lease.Token - 1}, nil); code != http.StatusConflict || ec != "lease_lost" {
		t.Fatalf("stale-token renew = %d %q, want 409 lease_lost", code, ec)
	}
	// The holder with its token renews.
	var renewed cluster.LeaseResponse
	if code, _ := postJSON(t, renewURL,
		cluster.LeaseMutateRequest{Holder: "node-a", Token: lr.Lease.Token}, &renewed); code != http.StatusOK {
		t.Fatalf("holder renew = %d", code)
	}
	if renewed.Lease.Token != lr.Lease.Token || !renewed.Lease.ExpiresAt.After(lr.Lease.ExpiresAt) {
		t.Fatalf("renewal minted token %d (want %d) or did not extend expiry (%v -> %v)",
			renewed.Lease.Token, lr.Lease.Token, lr.Lease.ExpiresAt, renewed.Lease.ExpiresAt)
	}
}

// TestHTTPLeaseFencingRejectsStaleRelease models the dangerous
// interleaving: A's lease expires, B steals the key, then A's delayed
// release finally arrives. The stale token must not evict B.
func TestHTTPLeaseFencingRejectsStaleRelease(t *testing.T) {
	coord := startCoordinator(t, 1)
	base := coord.ts.URL
	const key = "lease-fencing-point"

	la, code := acquire(t, base, key, "node-a", 150*time.Millisecond)
	if code != http.StatusOK || !la.Acquired {
		t.Fatalf("acquire a = %d %+v", code, la)
	}
	// A stalls past its TTL; B reclaims the key.
	deadline := time.After(10 * time.Second)
	var lb cluster.LeaseResponse
	for !lb.Acquired {
		lb, _ = acquire(t, base, key, "node-b", 5*time.Second)
		if !lb.Acquired {
			select {
			case <-deadline:
				t.Fatalf("node-b never reclaimed the expired lease: %+v", lb)
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	if lb.Lease.Token <= la.Lease.Token {
		t.Fatalf("steal token %d does not fence out the old token %d", lb.Lease.Token, la.Lease.Token)
	}

	// A's delayed release and renew both bounce off the fence.
	if code, ec := postJSON(t, base+"/v1/cluster/leases/"+key+"/release",
		cluster.LeaseMutateRequest{Holder: "node-a", Token: la.Lease.Token}, nil); code != http.StatusConflict || ec != "lease_lost" {
		t.Fatalf("stale release = %d %q, want 409 lease_lost", code, ec)
	}
	if code, _ := postJSON(t, base+"/v1/cluster/leases/"+key+"/renew",
		cluster.LeaseMutateRequest{Holder: "node-a", Token: la.Lease.Token}, nil); code != http.StatusConflict {
		t.Fatalf("stale renew = %d, want 409", code)
	}
	if cur, ok := coord.srv.Lease(key); !ok || cur.Holder != "node-b" || cur.Token != lb.Lease.Token {
		t.Fatalf("b's lease disturbed by stale mutations: %+v ok=%v", cur, ok)
	}

	// B's release with the live token lands; a duplicate delivery of the
	// same release is a harmless retry (200, not an error).
	relURL := base + "/v1/cluster/leases/" + key + "/release"
	req := cluster.LeaseMutateRequest{Holder: "node-b", Token: lb.Lease.Token}
	if code, _ := postJSON(t, relURL, req, nil); code != http.StatusOK {
		t.Fatalf("release = %d", code)
	}
	if code, _ := postJSON(t, relURL, req, nil); code != http.StatusOK {
		t.Fatalf("duplicate release = %d, want 200 (retry-safe)", code)
	}
	if _, ok := coord.srv.Lease(key); ok {
		t.Fatal("lease still standing after release")
	}
}

// TestHTTPLeaseExpiredStealSingleWinner lets 16 concurrent claimants
// race for a key whose lease expired: the arbiter's compare-and-swap
// behind the HTTP route must crown exactly one.
func TestHTTPLeaseExpiredStealSingleWinner(t *testing.T) {
	coord := startCoordinator(t, 1)
	base := coord.ts.URL
	const key = "lease-steal-point"

	lg, code := acquire(t, base, key, "ghost", 50*time.Millisecond)
	if code != http.StatusOK || !lg.Acquired {
		t.Fatalf("ghost acquire = %d %+v", code, lg)
	}
	time.Sleep(100 * time.Millisecond) // let the ghost's lease expire

	var wg sync.WaitGroup
	wins := make([]bool, 16)
	for i := range wins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lr, _ := acquire(t, base, key, fmt.Sprintf("claimant-%02d", i), 5*time.Second)
			wins[i] = lr.Acquired
		}(i)
	}
	wg.Wait()
	winners := 0
	for _, w := range wins {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d of 16 concurrent claimants won the expired lease, want exactly 1: %v", winners, wins)
	}
	if cur, ok := coord.srv.Lease(key); !ok || cur.Token <= lg.Lease.Token {
		t.Fatalf("winning lease %+v (ok=%v) does not fence out the ghost's token %d", cur, ok, lg.Lease.Token)
	}
}

// TestHTTPLeaseReacquireIsIdempotentPerHolder pins the lost-response
// story: a holder retrying its own acquire is granted again with the
// original token, while any other node stays locked out.
func TestHTTPLeaseReacquireIsIdempotentPerHolder(t *testing.T) {
	coord := startCoordinator(t, 1)
	base := coord.ts.URL
	const key = "lease-reacquire-point"

	first, code := acquire(t, base, key, "node-a", 5*time.Second)
	if code != http.StatusOK || !first.Acquired {
		t.Fatalf("acquire = %d %+v", code, first)
	}
	again, code := acquire(t, base, key, "node-a", 5*time.Second)
	if code != http.StatusOK || !again.Acquired {
		t.Fatalf("re-acquire by holder = %d %+v, want granted (lost-response retry)", code, again)
	}
	if again.Lease.Token != first.Lease.Token {
		t.Fatalf("re-acquire minted a new token %d, want the original %d",
			again.Lease.Token, first.Lease.Token)
	}
	if other, _ := acquire(t, base, key, "node-b", 5*time.Second); other.Acquired {
		t.Fatalf("foreign acquire granted while the lease is live: %+v", other)
	}
}

// loseFirstResponse lets the first request to path execute on the
// server and then loses its response, as a flaky network would; it
// counts every request to path.
type loseFirstResponse struct {
	path  string
	lost  atomic.Bool
	calls atomic.Int64
}

func (l *loseFirstResponse) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != l.path {
		return http.DefaultTransport.RoundTrip(r)
	}
	l.calls.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && l.lost.CompareAndSwap(false, true) {
		resp.Body.Close()
		return nil, errors.New("response lost")
	}
	return resp, err
}

// TestHTTPMemberRetriedAcquireKeepsToken: a -cluster-url member whose
// acquire response is lost retries, is granted the lease it already
// holds with the original token, and can release it. A second local
// claim of the held key is busy without another RPC.
func TestHTTPMemberRetriedAcquireKeepsToken(t *testing.T) {
	coord := startCoordinator(t, 1)
	const key = "lost-acquire-point"
	rt := &loseFirstResponse{path: "/v1/cluster/leases"}
	m, err := cluster.JoinHTTP(cluster.HTTPConfig{BaseURL: coord.ts.URL, NodeID: "runner-a",
		LeaseTTL: 5 * time.Second, Heartbeat: 100 * time.Millisecond, Client: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer m.Leave()

	ok, lease, err := m.Claim(key)
	if err != nil || !ok {
		t.Fatalf("claim across a lost response = %v, %v", ok, err)
	}
	if cur, held := coord.srv.Lease(key); !held || rt.calls.Load() != 2 || cur.Token != lease.Token {
		t.Fatalf("arbiter lease %+v after %d acquire RPCs; want the member's token %d after 2",
			cur, rt.calls.Load(), lease.Token)
	}
	if ok, _, err := m.Claim(key); ok || err != nil || rt.calls.Load() != 2 {
		t.Fatalf("second local claim = %v, %v after %d RPCs; want busy with no RPC", ok, err, rt.calls.Load())
	}
	m.Release(key)
	if cur, held := coord.srv.Lease(key); held {
		t.Fatalf("release with the retried token left %+v", cur)
	}
}

// TestHTTPMemberExactlyOnceWithinOneNode is the same-node race over
// -cluster-url: two identical in-flight specs on one runner's two
// workers compute once. The arbiter grants a holder's repeated
// acquire, so the member itself must turn the second worker away.
func TestHTTPMemberExactlyOnceWithinOneNode(t *testing.T) {
	coord := startCoordinator(t, 1)
	r := startRunner(t, coord.ts.URL, "runner-1", faulttransport.Config{Seed: 41})
	graph, err := cli.FamilySpec("cycle", 2048)
	if err != nil {
		t.Fatalf("family spec: %v", err)
	}
	spec := func() *engine.ProcessSpec {
		return &engine.ProcessSpec{Process: "cobra", Graph: graph,
			Params: process.Params{"k": 2.0}, Trials: 40, Seed: 41}
	}
	var jobs []*engine.Job
	for i := 0; i < 2; i++ {
		j, err := r.eng.Submit(spec(), 0)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	if m := r.eng.Metrics(); m.Computed != 1 {
		t.Fatalf("identical in-flight specs computed %d times on one runner, want 1", m.Computed)
	}
	entries, err := coord.cl.Journal()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	assertJournalExactlyOnce(t, entries, 1)
}

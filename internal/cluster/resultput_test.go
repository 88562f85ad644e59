package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// putCounter counts the result pushes a member sends, attempts
// included, on top of the default transport.
type putCounter struct{ puts atomic.Int64 }

func (c *putCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/cluster/results/") {
		c.puts.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestResultPutRefusalIsNotRetried pins that the coordinator answers a
// result push the store refuses for its content (a key that is not
// lower-case hex, a payload that is not JSON) with 400 bad_request, and
// that a runner's RemoteStore.Put gives up after that one attempt
// instead of retrying a request that cannot succeed.
func TestResultPutRefusalIsNotRetried(t *testing.T) {
	coord := startCoordinator(t, 1)
	const validKey = "0123456789abcdef"
	for _, tc := range []struct{ key, body string }{
		{"ABC", `{"ok": true}`},
		{validKey, `not json`},
	} {
		req, err := http.NewRequest(http.MethodPut, coord.ts.URL+"/v1/cluster/results/"+tc.key, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT %s: %v", tc.key, err)
		}
		var envelope struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "bad_request" {
			t.Errorf("PUT key %q body %q = %d %q, want 400 bad_request", tc.key, tc.body, resp.StatusCode, envelope.Error.Code)
		}
	}

	counter := &putCounter{}
	m, err := cluster.JoinHTTP(cluster.HTTPConfig{
		BaseURL: coord.ts.URL, NodeID: "pusher",
		LeaseTTL: 5 * time.Second, Heartbeat: 100 * time.Millisecond, Poll: 25 * time.Millisecond,
		Client: &http.Client{Transport: counter, Timeout: 15 * time.Second},
	})
	if err != nil {
		t.Fatalf("join over http: %v", err)
	}
	defer m.Leave()
	if err := m.RemoteStore().Put(validKey, []byte(`not json`)); err == nil {
		t.Fatal("RemoteStore.Put of a payload that is not JSON succeeded")
	}
	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("refused push took %d attempts, want 1", n)
	}
	if err := m.RemoteStore().Put(validKey, []byte(`{"ok": true}`)); err != nil {
		t.Fatalf("valid push: %v", err)
	}
	if got, ok, err := coord.st.Get(validKey); !ok || err != nil || !bytes.Equal(got, []byte(`{"ok": true}`)) {
		t.Fatalf("stored record = %s ok=%v err=%v", got, ok, err)
	}
}

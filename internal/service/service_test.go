package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// blockSpec is a service-test job that runs until released or canceled;
// it lets the tests park the single worker deterministically.
type blockSpec struct {
	Name string `json:"name"`

	release <-chan struct{}
}

func (s *blockSpec) Kind() string    { return "block" }
func (s *blockSpec) Validate() error { return nil }

func (s *blockSpec) Run(ctx context.Context, progress func(done, total int)) (*engine.Output, error) {
	select {
	case <-s.release:
		return &engine.Output{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newTestServer(t *testing.T, opts engine.Options) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(opts)
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	})
	return ts, eng
}

// doJSON issues a request and decodes the JSON response body into out.
func doJSON(t *testing.T, method, url string, body string, out interface{}) int {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

type jobEnvelope struct {
	Job engine.Status `json:"job"`
}

type resultEnvelope struct {
	Job    engine.Status  `json:"job"`
	Result *engine.Output `json:"result"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// submitCobra posts a small deterministic cobra cover-time job.
func submitCobra(t *testing.T, ts *httptest.Server, seed int) engine.Status {
	t.Helper()
	body := fmt.Sprintf(`{"kind":"process","spec":{"process":"cobra","graph":"grid:2,6","params":{"k":2},"trials":4,"seed":%d}}`, seed)
	var env jobEnvelope
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &env); code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	return env.Job
}

// pollUntilDone polls job status until it reaches a terminal state.
func pollUntilDone(t *testing.T, ts *httptest.Server, id string) engine.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var env jobEnvelope
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", &env); code != http.StatusOK {
			t.Fatalf("status code = %d, want 200", code)
		}
		if env.Job.State.Terminal() {
			return env.Job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return engine.Status{}
}

func TestSubmitPollResultRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 2})

	job := submitCobra(t, ts, 1)
	if job.ID == "" || job.Kind != "process" {
		t.Fatalf("submitted job = %+v", job)
	}
	final := pollUntilDone(t, ts, job.ID)
	if final.State != engine.Done {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if final.Done != 4 || final.Total != 4 {
		t.Errorf("progress = %d/%d, want 4/4", final.Done, final.Total)
	}

	var res resultEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID+"/result", "", &res); code != http.StatusOK {
		t.Fatalf("result status = %d, want 200", code)
	}
	if len(res.Result.Values) != 4 {
		t.Errorf("result has %d values, want 4", len(res.Result.Values))
	}
	if res.Result.Summary["mean"] <= 0 {
		t.Errorf("mean = %v, want > 0", res.Result.Summary["mean"])
	}
}

// TestResubmitServesCacheHitWithIdenticalResult is the acceptance-path
// test: an identical resubmission must complete instantly as a cache hit
// and return the byte-identical result payload.
func TestResubmitServesCacheHitWithIdenticalResult(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 2})

	first := submitCobra(t, ts, 99)
	if pollUntilDone(t, ts, first.ID).State != engine.Done {
		t.Fatal("first submission failed")
	}
	var firstRes resultEnvelope
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID+"/result", "", &firstRes)

	second := submitCobra(t, ts, 99)
	if second.State != engine.Done || !second.CacheHit {
		t.Fatalf("resubmission = %+v, want immediate cached done", second)
	}
	if second.ID == first.ID {
		t.Errorf("resubmission reused job id %s", first.ID)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	var secondRes resultEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+second.ID+"/result", "", &secondRes); code != http.StatusOK {
		t.Fatalf("cached result status = %d, want 200", code)
	}
	a, _ := json.Marshal(firstRes.Result)
	b, _ := json.Marshal(secondRes.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("cached result differs:\nfirst:  %s\nsecond: %s", a, b)
	}

	// A different seed is a different fingerprint: no cache hit.
	third := submitCobra(t, ts, 100)
	if third.CacheHit {
		t.Errorf("distinct spec served from cache")
	}
	pollUntilDone(t, ts, third.ID)
}

func TestResultBeforeCompletionConflicts(t *testing.T) {
	ts, eng := newTestServer(t, engine.Options{Workers: 1})

	release := make(chan struct{})
	defer close(release)
	if _, err := eng.Submit(&blockSpec{Name: "parked", release: release}, 10); err != nil {
		t.Fatalf("park worker: %v", err)
	}
	job := submitCobra(t, ts, 5) // queued behind the parked job
	var errBody errorEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID+"/result", "", &errBody); code != http.StatusConflict {
		t.Fatalf("early result status = %d, want 409", code)
	}
	if errBody.Error.Code != "not_finished" || errBody.Error.Message == "" {
		t.Errorf("conflict envelope = %+v, want code not_finished with a message", errBody.Error)
	}
}

func TestCancelEndpoint(t *testing.T) {
	ts, eng := newTestServer(t, engine.Options{Workers: 1})

	release := make(chan struct{})
	defer close(release)
	if _, err := eng.Submit(&blockSpec{Name: "parked", release: release}, 10); err != nil {
		t.Fatalf("park worker: %v", err)
	}
	job := submitCobra(t, ts, 6)

	var cancelResp map[string]interface{}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, "", &cancelResp); code != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", code)
	}
	if cancelResp["canceled"] != true {
		t.Errorf("cancel response = %v, want canceled=true", cancelResp)
	}
	if final := pollUntilDone(t, ts, job.ID); final.State != engine.Canceled {
		t.Errorf("state after cancel = %s, want canceled", final.State)
	}
	var res errorEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID+"/result", "", &res); code != http.StatusUnprocessableEntity {
		t.Errorf("canceled result status = %d, want 422", code)
	}
	if res.Error.Code != "job_failed" {
		t.Errorf("canceled result envelope = %+v, want code job_failed", res.Error)
	}
}

func TestListJobs(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 2})
	a := submitCobra(t, ts, 1)
	b := submitCobra(t, ts, 2)
	pollUntilDone(t, ts, a.ID)
	pollUntilDone(t, ts, b.ID)

	var list struct {
		Jobs []engine.Status `json:"jobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", "", &list); code != http.StatusOK {
		t.Fatalf("list status = %d, want 200", code)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list.Jobs))
	}
	// Most recent first.
	if list.Jobs[0].ID != b.ID || list.Jobs[1].ID != a.ID {
		t.Errorf("list order = %s, %s; want %s, %s", list.Jobs[0].ID, list.Jobs[1].ID, b.ID, a.ID)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown kind", `{"kind":"teleport","spec":{}}`, http.StatusBadRequest},
		{"retired kind", `{"kind":"covertime","spec":{"graph":"cycle:8","k":2,"trials":1,"seed":1}}`, http.StatusBadRequest},
		{"missing spec", `{"kind":"process"}`, http.StatusBadRequest},
		{"invalid spec", `{"kind":"process","spec":{"process":"cobra","graph":"cycle:8","params":{"k":0},"trials":1,"seed":1}}`, http.StatusBadRequest},
		{"unknown spec field", `{"kind":"process","spec":{"process":"cobra","graph":"cycle:8","params":{"k":2},"trials":1,"seed":1,"bogus":1}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		var errBody errorEnvelope
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", c.body, &errBody); code != c.wantCode {
			t.Errorf("%s: status = %d, want %d", c.name, code, c.wantCode)
		} else if errBody.Error.Code != "bad_request" || errBody.Error.Message == "" {
			t.Errorf("%s: envelope = %+v, want code bad_request with a message", c.name, errBody.Error)
		}
	}

	var nf errorEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/j424242", "", &nf); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if nf.Error.Code != "not_found" {
		t.Errorf("not-found envelope = %+v, want code not_found", nf.Error)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/j424242/result", "", &map[string]any{}); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/j424242", "", &map[string]any{}); code != http.StatusNotFound {
		t.Errorf("unknown job cancel = %d, want 404", code)
	}
}

// TestBadGraphSpecFailsTheJob pins that a graph spec its generator
// refuses ends the job failed, or is refused with 400, instead of
// panicking an engine worker and taking the daemon down; the sweep route
// reaches the same generator through the family expansion.
func TestBadGraphSpecFailsTheJob(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	cases := []struct{ path, envelope, body string }{
		{"/v1/jobs", "job", `{"kind":"process","spec":{"process":"cobra","graph":"cycle:0","params":{"k":2},"trials":1,"seed":1}}`},
		{"/v1/sweeps", "sweep", `{"spec":{"child":"process","process":"cobra","family":"cycle","sizes":[2],"k":2,"trials":1,"seed":1}}`},
	}
	for _, c := range cases {
		var env map[string]engine.Status
		switch code := doJSON(t, "POST", ts.URL+c.path, c.body, &env); code {
		case http.StatusBadRequest:
		case http.StatusAccepted:
			if final := pollUntilDone(t, ts, env[c.envelope].ID); final.State != engine.Failed {
				t.Errorf("%s: state = %s, want failed", c.path, final.State)
			}
		default:
			t.Errorf("%s: status = %d, want 202 or 400", c.path, code)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", &map[string]any{}); code != http.StatusOK {
		t.Fatalf("healthz status = %d after bad graph specs, want 200", code)
	}
}

// TestProcessesDiscovery pins the v1 discovery contract: at least 8
// registered processes, each with a name, a doc line, and a parameter
// schema the client can validate against.
func TestProcessesDiscovery(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})

	var listing struct {
		Processes []struct {
			Name   string `json:"name"`
			Doc    string `json:"doc"`
			Params []struct {
				Name string `json:"name"`
				Type string `json:"type"`
				Doc  string `json:"doc"`
			} `json:"params"`
		} `json:"processes"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/processes", "", &listing); code != http.StatusOK {
		t.Fatalf("processes status = %d, want 200", code)
	}
	if len(listing.Processes) < 8 {
		t.Fatalf("discovery lists %d processes, want >= 8", len(listing.Processes))
	}
	seen := map[string]bool{}
	for _, p := range listing.Processes {
		if p.Name == "" || p.Doc == "" || len(p.Params) == 0 {
			t.Errorf("process entry incomplete: %+v", p)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"cobra", "walt", "sis", "push", "push-pull", "simple-walk"} {
		if !seen[want] {
			t.Errorf("discovery missing process %q (have %v)", want, seen)
		}
	}
}

// TestProcessJobOverHTTP drives a generic process job end to end: the
// submission path every newly registered process gets for free.
func TestProcessJobOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	var env jobEnvelope
	body := `{"kind":"process","spec":{"process":"push","graph":"cycle:16","trials":3,"seed":2}}`
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &env); code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	final := pollUntilDone(t, ts, env.Job.ID)
	if final.State != engine.Done {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	var res resultEnvelope
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+env.Job.ID+"/result", "", &res)
	if len(res.Result.Values) != 3 || res.Result.Meta["process"] != "push" {
		t.Errorf("process result = %+v", res.Result)
	}
	if res.Result.Summary["messages_mean"] <= 0 {
		t.Errorf("summary = %v, want messages_mean > 0", res.Result.Summary)
	}

	// A schema violation surfaces as a bad_request envelope.
	var errBody errorEnvelope
	bad := `{"kind":"process","spec":{"process":"push","graph":"cycle:16","trials":3,"seed":2,"params":{"k":2}}}`
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", bad, &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad param submit status = %d, want 400", code)
	}
	if errBody.Error.Code != "bad_request" || !strings.Contains(errBody.Error.Message, "unknown parameter") {
		t.Errorf("bad param envelope = %+v", errBody.Error)
	}
}

func TestListJobsStatusFilter(t *testing.T) {
	ts, eng := newTestServer(t, engine.Options{Workers: 1})

	release := make(chan struct{})
	blocked, err := eng.Submit(&blockSpec{Name: "parked", release: release}, 10)
	if err != nil {
		t.Fatalf("park worker: %v", err)
	}
	done := submitCobra(t, ts, 31)
	close(release)
	pollUntilDone(t, ts, done.ID)
	pollUntilDone(t, ts, blocked.ID())

	var doneList struct {
		Jobs []engine.Status `json:"jobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs?status=done", "", &doneList); code != http.StatusOK {
		t.Fatalf("filtered list status = %d, want 200", code)
	}
	for _, j := range doneList.Jobs {
		if j.State != engine.Done {
			t.Errorf("status=done listing contains %s job %s", j.State, j.ID)
		}
	}
	if len(doneList.Jobs) != 2 {
		t.Errorf("status=done listed %d jobs, want 2", len(doneList.Jobs))
	}

	var errBody errorEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs?status=bogus", "", &errBody); code != http.StatusBadRequest {
		t.Errorf("bogus filter status = %d, want 400", code)
	}
	if errBody.Error.Code != "bad_request" || errBody.Error.Detail == "" {
		t.Errorf("bogus filter envelope = %+v, want bad_request with detail", errBody.Error)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	ts, eng := newTestServer(t, engine.Options{Workers: 1, QueueDepth: 1})

	release := make(chan struct{})
	defer close(release)
	if _, err := eng.Submit(&blockSpec{Name: "parked", release: release}, 10); err != nil {
		t.Fatalf("park worker: %v", err)
	}
	// Fill the single queue slot, then the next submission must be shed.
	codes := []int{}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"kind":"process","spec":{"process":"cobra","graph":"grid:2,6","params":{"k":2},"trials":4,"seed":%d}}`, 50+i)
		codes = append(codes, doJSON(t, "POST", ts.URL+"/v1/jobs", body, nil))
	}
	found503 := false
	for _, c := range codes {
		if c == http.StatusServiceUnavailable {
			found503 = true
		}
	}
	if !found503 {
		t.Errorf("submission codes = %v, want a 503", codes)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 2})

	var health map[string]interface{}
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	job := submitCobra(t, ts, 1)
	pollUntilDone(t, ts, job.ID)
	submitCobra(t, ts, 1) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"cobrad_jobs_submitted_total 2",
		"cobrad_jobs_completed_total 2",
		"cobrad_cache_hits_total 1",
		"cobrad_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestExperimentJobOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	var env jobEnvelope
	body := `{"kind":"experiment","spec":{"id":"E14","scale":"quick","seed":1}}`
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &env); code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	final := pollUntilDone(t, ts, env.Job.ID)
	if final.State != engine.Done {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	var res resultEnvelope
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+env.Job.ID+"/result", "", &res)
	if res.Result.Meta["experiment"] != "E14" || len(res.Result.Tables) == 0 {
		t.Errorf("experiment result = %+v", res.Result)
	}
}

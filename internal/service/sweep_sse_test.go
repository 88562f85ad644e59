package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/process"
	"repro/internal/rng"
	"repro/internal/store"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Event string
	Data  string
}

// readSSE consumes an SSE stream until a status event carries a
// terminal state (or the stream ends), returning all status events.
func readSSE(t *testing.T, url string) []engine.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}

	var statuses []engine.Status
	var ev sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Event == "status" && ev.Data != "" {
				var st engine.Status
				if err := json.Unmarshal([]byte(ev.Data), &st); err != nil {
					t.Fatalf("bad status event %q: %v", ev.Data, err)
				}
				statuses = append(statuses, st)
				if st.State.Terminal() {
					return statuses
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// comment / keepalive
		}
	}
	return statuses
}

func TestEventsStreamPointJob(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})

	body := `{"kind":"process","spec":{"process":"cobra","graph":"grid:2,8","params":{"k":2},"trials":16,"seed":7}}`
	var env jobEnvelope
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &env); code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	statuses := readSSE(t, ts.URL+"/v1/jobs/"+env.Job.ID+"/events")
	if len(statuses) == 0 {
		t.Fatal("no status events received")
	}
	last := statuses[len(statuses)-1]
	if last.State != engine.Done {
		t.Fatalf("final streamed state = %s (%s), want done", last.State, last.Error)
	}
	if last.Done != 16 || last.Total != 16 {
		t.Errorf("final progress = %d/%d, want 16/16", last.Done, last.Total)
	}
	for i := 1; i < len(statuses); i++ {
		if statuses[i].Done < statuses[i-1].Done {
			t.Errorf("progress went backwards: %d then %d", statuses[i-1].Done, statuses[i].Done)
		}
	}
}

func TestEventsStreamOnFinishedJobEmitsTerminalAndCloses(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	job := submitCobra(t, ts, 3)
	pollUntilDone(t, ts, job.ID)
	statuses := readSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events")
	if len(statuses) != 1 || statuses[0].State != engine.Done {
		t.Errorf("statuses = %+v, want a single done event", statuses)
	}
}

func TestEventsUnknownJob404s(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/j424242/events", "", &errorEnvelope{}); code != http.StatusNotFound {
		t.Errorf("events status = %d, want 404", code)
	}
}

type sweepEnvelope struct {
	Sweep engine.Status `json:"sweep"`
}

type sweepStatusEnvelope struct {
	Sweep    engine.Status   `json:"sweep"`
	Children []engine.Status `json:"children"`
}

// TestSweepOverHTTPWithSSEProgress is the acceptance-path test: a sweep
// of >= 12 points submitted over HTTP completes while an SSE stream
// reports aggregated progress, the fan-out view exposes every child,
// and the aggregate result is byte-identical to running the same points
// as a client-side loop of point jobs.
func TestSweepOverHTTPWithSSEProgress(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 2})

	// 2 ks x 6 sizes = 12 points.
	spec := `{"child":"process","process":"cobra","family":"cycle","sizes":[6,8,10,12,14,16],"ks":[1,2],"trials":3,"seed":17}`
	var env sweepEnvelope
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps", `{"spec":`+spec+`}`, &env); code != http.StatusAccepted {
		t.Fatalf("submit sweep status = %d, want 202", code)
	}
	if env.Sweep.Kind != "sweep" || env.Sweep.State.Terminal() {
		// Children fan out asynchronously, so the submit response only
		// pins the sweep itself; the fan-out view below checks all 12.
		t.Fatalf("sweep submission = %+v, want live sweep job", env.Sweep)
	}

	statuses := readSSE(t, ts.URL+"/v1/jobs/"+env.Sweep.ID+"/events")
	if len(statuses) == 0 {
		t.Fatal("no SSE events for sweep")
	}
	last := statuses[len(statuses)-1]
	if last.State != engine.Done {
		t.Fatalf("final sweep state = %s (%s), want done", last.State, last.Error)
	}
	if last.Done != last.Total || last.Total == 0 {
		t.Errorf("final aggregated progress = %d/%d, want complete", last.Done, last.Total)
	}

	var sw sweepStatusEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/sweeps/"+env.Sweep.ID, "", &sw); code != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200", code)
	}
	if len(sw.Children) != 12 {
		t.Fatalf("fan-out view has %d children, want 12", len(sw.Children))
	}
	for _, c := range sw.Children {
		if c.State != engine.Done || c.Parent != env.Sweep.ID {
			t.Errorf("child %s = state %s parent %q", c.ID, c.State, c.Parent)
		}
	}

	var res resultEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+env.Sweep.ID+"/result", "", &res); code != http.StatusOK {
		t.Fatalf("sweep result status = %d, want 200", code)
	}
	if len(res.Result.Points) != 12 {
		t.Fatalf("sweep result has %d points, want 12", len(res.Result.Points))
	}

	// Client-side loop equivalence: run each point as its own point job
	// on a fresh engine and compare the values byte for byte.
	loopEng := engine.New(engine.Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = loopEng.Shutdown(ctx)
	}()
	var sweepSpec engine.SweepSpec
	if err := json.Unmarshal([]byte(spec), &sweepSpec); err != nil {
		t.Fatalf("decode sweep spec: %v", err)
	}
	for i, p := range res.Result.Points {
		direct, err := loopEng.RunSync(context.Background(), &engine.ProcessSpec{
			Process:   "cobra",
			Graph:     p.Graph,
			GraphSeed: graphSeedForPoint(sweepSpec.Seed, i%len(sweepSpec.Sizes)),
			Params:    process.Params{"k": float64(p.K)},
			Trials:    sweepSpec.Trials,
			Seed:      trialSeedForPoint(sweepSpec.Seed, i),
		})
		if err != nil {
			t.Fatalf("client-side point %d: %v", i, err)
		}
		a, _ := json.Marshal(p.Values)
		b, _ := json.Marshal(direct.Values)
		if !bytes.Equal(a, b) {
			t.Errorf("point %d values differ:\nsweep: %s\nloop:  %s", i, a, b)
		}
	}
}

// TestSweepSurvivesServerRestart proves HTTP-level restart durability:
// a sweep served by one daemon instance is replayed from the persistent
// store by a fresh instance sharing the data directory.
func TestSweepSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	spec := `{"child":"process","process":"cobra","family":"path","sizes":[6,8,10],"ks":[1,2],"trials":2,"seed":23}`

	run := func(warm bool) (engine.Status, *engine.Output) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		eng := engine.New(engine.Options{Workers: 2, Store: st})
		ts := httptest.NewServer(New(eng).Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = eng.Shutdown(ctx)
		}()

		var env sweepEnvelope
		if code := doJSON(t, "POST", ts.URL+"/v1/sweeps", `{"spec":`+spec+`}`, &env); code != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", code)
		}
		if warm && (!env.Sweep.CacheHit || env.Sweep.State != engine.Done) {
			t.Fatalf("restarted daemon did not serve sweep from store: %+v", env.Sweep)
		}
		final := pollUntilDone(t, ts, env.Sweep.ID)
		if final.State != engine.Done {
			t.Fatalf("state = %s (%s), want done", final.State, final.Error)
		}
		var res resultEnvelope
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+env.Sweep.ID+"/result", "", &res); code != http.StatusOK {
			t.Fatalf("result status = %d, want 200", code)
		}
		return final, res.Result
	}

	_, first := run(false)
	_, second := run(true) // fresh engine + server, same data dir

	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Errorf("sweep result changed across restart:\nbefore: %s\nafter:  %s", a, b)
	}
}

func TestSweepBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"missing spec", `{}`},
		{"unknown child", `{"spec":{"child":"teleport","sizes":[8],"k":1,"trials":1}}`},
		{"empty grid", `{"spec":{"child":"process","process":"cobra","family":"cycle","k":2,"trials":1}}`},
		{"unknown field", `{"spec":{"child":"process","process":"cobra","family":"cycle","sizes":[8],"k":2,"trials":1,"bogus":1}}`},
	}
	for _, c := range cases {
		var errBody errorEnvelope
		if code := doJSON(t, "POST", ts.URL+"/v1/sweeps", c.body, &errBody); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, code)
		}
	}

	// /v1/sweeps/{id} on a non-sweep job is a 404.
	job := submitCobra(t, ts, 1)
	pollUntilDone(t, ts, job.ID)
	if code := doJSON(t, "GET", ts.URL+"/v1/sweeps/"+job.ID, "", &errorEnvelope{}); code != http.StatusNotFound {
		t.Errorf("sweep view of point job = %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sweeps/j424242", "", &errorEnvelope{}); code != http.StatusNotFound {
		t.Errorf("unknown sweep = %d, want 404", code)
	}
}

// TestSweepAsJobKind pins that POST /v1/jobs {"kind":"sweep"} is
// equivalent to the dedicated endpoint.
func TestSweepAsJobKind(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 2})
	body := `{"kind":"sweep","spec":{"child":"process","process":"cobra","family":"cycle","sizes":[6,8],"k":2,"trials":2,"seed":5}}`
	var env jobEnvelope
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &env); code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if env.Job.Kind != "sweep" {
		t.Fatalf("job = %+v, want sweep", env.Job)
	}
	final := pollUntilDone(t, ts, env.Job.ID)
	if final.State != engine.Done {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if len(final.Children) != 2 {
		t.Fatalf("finished sweep has %d children, want 2", len(final.Children))
	}
}

// graphSeedForPoint and trialSeedForPoint mirror the engine's sweep
// seed discipline (documented on SweepSpec) from the client's side of
// the API: the graph seed follows the size index, the trial seed the
// flat point index.
func graphSeedForPoint(seed uint64, sizeIndex int) uint64 {
	return rng.Stream(seed, 9000+sizeIndex)
}

func trialSeedForPoint(seed uint64, flatIndex int) uint64 {
	return rng.Stream(seed, flatIndex)
}

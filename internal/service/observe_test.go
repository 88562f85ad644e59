package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// seriesEnvelope is the GET /v1/jobs/{id}/series body.
type seriesEnvelope struct {
	Job      string      `json:"job"`
	Frames   []obs.Frame `json:"frames"`
	Next     uint64      `json:"next"`
	Capacity int         `json:"capacity"`
}

// submitProcess posts a process job large enough to record many frames.
func submitProcess(t *testing.T, ts *httptest.Server, body string) engine.Status {
	t.Helper()
	var env jobEnvelope
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &env); code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	return env.Job
}

func TestSeriesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	job := submitProcess(t, ts,
		`{"kind":"process","spec":{"process":"cobra","graph":"regular:128,4","params":{"k":2},"trials":4,"seed":11}}`)
	pollUntilDone(t, ts, job.ID)

	var env seriesEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID+"/series", "", &env); code != http.StatusOK {
		t.Fatalf("series status = %d, want 200", code)
	}
	if env.Job != job.ID {
		t.Errorf("series job = %q, want %q", env.Job, job.ID)
	}
	if len(env.Frames) == 0 {
		t.Fatal("finished observable job has no frames")
	}
	if env.Capacity <= 0 {
		t.Errorf("capacity = %d, want positive", env.Capacity)
	}
	for _, f := range env.Frames {
		if f.Covered <= 0 || f.Round <= 0 || f.Coverage <= 0 {
			t.Fatalf("degenerate frame %+v", f)
		}
	}

	// Incremental read: since=next returns nothing new.
	var tail seriesEnvelope
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%s/series?since=%d", ts.URL, job.ID, env.Next), "", &tail); code != http.StatusOK {
		t.Fatalf("incremental series status = %d, want 200", code)
	}
	if len(tail.Frames) != 0 || tail.Next != env.Next {
		t.Errorf("since=next returned %d frames, next %d; want 0 and %d", len(tail.Frames), tail.Next, env.Next)
	}

	// Bad cursor is a 400.
	var errBody errorEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID+"/series?since=banana", "", &errBody); code != http.StatusBadRequest {
		t.Errorf("bad cursor status = %d, want 400", code)
	}
	// Unknown job is a 404.
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/j424242/series", "", &errorEnvelope{}); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
}

// sseFrameEvent is one parsed frames event with its id line.
type sseFrameEvent struct {
	ID     uint64
	Frames []obs.Frame
}

// readSSEMux consumes an events stream until a terminal status,
// returning both the status sequence and every frames event.
func readSSEMux(t *testing.T, url, lastEventID string) ([]engine.Status, []sseFrameEvent) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}

	var statuses []engine.Status
	var frames []sseFrameEvent
	var ev struct {
		id    string
		event string
		data  string
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch ev.event {
			case "status":
				var st engine.Status
				if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
					t.Fatalf("bad status event %q: %v", ev.data, err)
				}
				statuses = append(statuses, st)
				if st.State.Terminal() {
					return statuses, frames
				}
			case "frames":
				var fe sseFrameEvent
				if ev.id == "" {
					t.Fatalf("frames event without id line: %q", ev.data)
				}
				if _, err := fmt.Sscanf(ev.id, "%d", &fe.ID); err != nil {
					t.Fatalf("bad frames id %q: %v", ev.id, err)
				}
				if err := json.Unmarshal([]byte(ev.data), &fe.Frames); err != nil {
					t.Fatalf("bad frames event %q: %v", ev.data, err)
				}
				if len(fe.Frames) == 0 {
					t.Fatal("empty frames event")
				}
				frames = append(frames, fe)
			}
			ev.id, ev.event, ev.data = "", "", ""
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return statuses, frames
}

// TestEventsStreamMultiplexesFrames checks the upgraded /events stream:
// frames events interleave with status events, each carries a
// monotonically increasing cursor id, frames are well-formed, and the
// stream still ends with the terminal status.
func TestEventsStreamMultiplexesFrames(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	job := submitProcess(t, ts,
		`{"kind":"process","spec":{"process":"cobra","graph":"regular:256,4","params":{"k":2},"trials":64,"seed":5}}`)

	statuses, frames := readSSEMux(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	if len(statuses) == 0 || statuses[len(statuses)-1].State != engine.Done {
		t.Fatalf("statuses = %+v, want done-terminated", statuses)
	}
	if len(frames) == 0 {
		t.Fatal("no frames events on an observable job")
	}
	var lastID uint64
	total := 0
	for _, fe := range frames {
		if fe.ID <= lastID {
			t.Fatalf("frames id went backwards: %d then %d", lastID, fe.ID)
		}
		lastID = fe.ID
		total += len(fe.Frames)
		for _, f := range fe.Frames {
			if f.Round <= 0 || f.Covered <= 0 {
				t.Fatalf("corrupt frame %+v", f)
			}
		}
	}
	if uint64(total) > lastID {
		t.Errorf("received %d frames but final cursor is %d", total, lastID)
	}
}

// TestEventsLastEventIDResumes checks reconnect semantics: a client
// reconnecting with the cursor it saw receives only frames past it.
func TestEventsLastEventIDResumes(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	job := submitProcess(t, ts,
		`{"kind":"process","spec":{"process":"cobra","graph":"regular:128,4","params":{"k":2},"trials":4,"seed":11}}`)
	pollUntilDone(t, ts, job.ID)

	// First read: full backfill.
	_, first := readSSEMux(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	if len(first) == 0 {
		t.Fatal("no frames on first read")
	}
	final := first[len(first)-1].ID

	// Reconnect from the final cursor: no frames replayed.
	_, resumed := readSSEMux(t, ts.URL+"/v1/jobs/"+job.ID+"/events", fmt.Sprint(final))
	if len(resumed) != 0 {
		t.Fatalf("reconnect at cursor %d replayed %d frames events", final, len(resumed))
	}

	// Reconnect from a mid-stream cursor: only newer frames arrive.
	if final < 2 {
		t.Skip("series too short for a mid-stream cursor")
	}
	mid := final / 2
	_, tail := readSSEMux(t, ts.URL+"/v1/jobs/"+job.ID+"/events", fmt.Sprint(mid))
	if len(tail) == 0 {
		t.Fatalf("reconnect at cursor %d of %d replayed nothing", mid, final)
	}
	count := 0
	for _, fe := range tail {
		count += len(fe.Frames)
	}
	if uint64(count) > final-mid {
		t.Errorf("resume from %d replayed %d frames, want <= %d", mid, count, final-mid)
	}
}

// TestTracePropagation checks the request-correlation path: the
// X-Request-Id a client sends comes back on the response and is stamped
// on the job it submitted; requests without one get a generated ID.
func TestTracePropagation(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})

	body := `{"kind":"process","spec":{"process":"cobra","graph":"grid:2,6","params":{"k":2},"trials":2,"seed":3}}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "req-777")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-777" {
		t.Errorf("response X-Request-Id = %q, want req-777", got)
	}
	var env jobEnvelope
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if env.Job.Trace != "req-777" {
		t.Errorf("job trace = %q, want req-777", env.Job.Trace)
	}
	final := pollUntilDone(t, ts, env.Job.ID)
	if final.Trace != "req-777" {
		t.Errorf("terminal job trace = %q, want req-777", final.Trace)
	}

	// No client ID: the server generates one.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Error("no generated X-Request-Id on response")
	}
}

// TestMetricsExposition checks the registry-backed /metrics endpoint:
// the historical families survive by name, the new hub and HTTP
// families appear, families are sorted, and every HELP line has a
// matching TYPE line.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	job := submitCobra(t, ts, 1)
	pollUntilDone(t, ts, job.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, name := range []string{
		"cobrad_jobs_submitted_total", "cobrad_jobs_completed_total",
		"cobrad_jobs_failed_total", "cobrad_jobs_canceled_total",
		"cobrad_cache_hits_total", "cobrad_store_hits_total",
		"cobrad_store_errors_total", "cobrad_jobs_rejected_total",
		"cobrad_jobs_evicted_total", "cobrad_points_computed_total",
		"cobrad_points_adopted_total", "cobrad_lease_waits_total",
		"cobrad_jobs_queued", "cobrad_jobs_running", "cobrad_workers",
		"cobrad_queue_capacity", "cobrad_cache_entries", "cobrad_cache_capacity",
		"cobrad_jobs_tracked", "cobrad_store_entries",
		"cobrad_hub_subscribers", "cobrad_hub_pumps",
		"cobrad_hub_frames_dropped_total",
		"cobrad_http_request_duration_seconds_bucket",
		"cobrad_http_request_duration_seconds_count",
		"graphstore_builds_total", "graphstore_hits_total",
		"graphstore_mmap_bytes", "graphstore_idle_bytes",
		"graphstore_mem_evictions_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
	if !strings.Contains(text, "cobrad_jobs_submitted_total 1") {
		t.Errorf("submitted counter not 1:\n%s", text)
	}

	// Structural conformance: HELP/TYPE pairing and sorted family order.
	var families []string
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			families = append(families, name)
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("HELP for %s not followed by its TYPE line", name)
			}
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i] <= families[i-1] {
			t.Errorf("families not sorted: %s after %s", families[i], families[i-1])
		}
	}
}

// TestEventsFanOutHammer is the fan-out acceptance test: many
// concurrent subscribers stream one live job and every one of them
// sees well-formed frames and a terminal status. Run under -race this
// also proves the hub's pump/subscriber handoff is clean.
func TestEventsFanOutHammer(t *testing.T) {
	const subscribers = 120
	ts, _ := newTestServer(t, engine.Options{Workers: 1})
	job := submitProcess(t, ts,
		`{"kind":"process","spec":{"process":"cobra","graph":"regular:512,4","params":{"k":2},"trials":256,"seed":21}}`)

	var wg sync.WaitGroup
	var terminal, sawFrames, corrupted atomic.Int64
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var ev struct{ event, data string }
			frames := 0
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case line == "":
					switch ev.event {
					case "status":
						var st engine.Status
						if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
							corrupted.Add(1)
							return
						}
						if st.State.Terminal() {
							terminal.Add(1)
							if frames > 0 {
								sawFrames.Add(1)
							}
							return
						}
					case "frames":
						var fs []obs.Frame
						if err := json.Unmarshal([]byte(ev.data), &fs); err != nil {
							corrupted.Add(1)
							return
						}
						for _, f := range fs {
							if f.Round <= 0 {
								corrupted.Add(1)
								return
							}
						}
						frames += len(fs)
					}
					ev.event, ev.data = "", ""
				case strings.HasPrefix(line, "event: "):
					ev.event = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					ev.data = strings.TrimPrefix(line, "data: ")
				}
			}
		}()
	}
	wg.Wait()
	if c := corrupted.Load(); c != 0 {
		t.Fatalf("%d subscribers saw corrupted frames", c)
	}
	if terminal.Load() != subscribers {
		t.Fatalf("%d of %d subscribers reached a terminal status", terminal.Load(), subscribers)
	}
	if sawFrames.Load() == 0 {
		t.Error("no subscriber received any frames")
	}
}

// TestHubSlowSubscriberDrops pins the drop policy directly: a
// subscriber that never drains its frame channel loses batches (the
// hub counts them) while the pump and fast subscribers are unaffected.
func TestHubSlowSubscriberDrops(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	h := newHub()
	h.interval = time.Millisecond

	release := make(chan struct{})
	job, err := eng.Submit(&blockSpec{Name: "slowsub", release: release}, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, cancelSlow := h.subscribe(job)
	defer cancelSlow()
	fast, cancelFast := h.subscribe(job)
	defer cancelFast()
	if h.subscribers.Load() != 2 {
		t.Fatalf("subscriber gauge = %d, want 2", h.subscribers.Load())
	}

	// Feed the job's series directly (the spec itself records nothing)
	// and never drain the slow subscriber.
	series := job.Series()
	drained := 0
	deadline := time.Now().Add(10 * time.Second)
	for h.dropped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops recorded for a stalled subscriber")
		}
		series.Append(obs.Frame{Trial: 0, Round: drained + 1, Covered: 1, Frontier: 1})
		// Keep the fast subscriber drained so only the slow one backs up.
		for {
			select {
			case <-fast.frames:
				drained++
				continue
			default:
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(slow.frames) != cap(slow.frames) {
		t.Errorf("slow subscriber queue %d/%d, want full", len(slow.frames), cap(slow.frames))
	}
	close(release)
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("job: %v", err)
	}
}

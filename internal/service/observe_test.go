package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
// the historical families survive by name, the open-stream gauge and
// the HTTP families appear, families are sorted, and every HELP line has a
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
		"cobrad_jobs_tracked", "cobrad_store_entries", "cobrad_job_series_bytes",
		"cobrad_hub_subscribers",
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
	if strings.Contains(text, "cobrad_job_series_bytes 0\n") {
		t.Errorf("a finished traced job holds no series bytes:\n%s", text)
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
// also proves the streams' concurrent series reads are clean.
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

// floodSpec is an observable service-test job that waits for start,
// then traces one trial of 4000 rounds in bursts of 200. After each
// burst but the last it waits until received counts every frame
// recorded so far (for at most 30 s over the whole run), so a reader
// that keeps up loses no frame to the ring. The job finishes right
// after the last burst, so those frames reach a stream only if it
// sends its unsent frames before the terminal status.
type floodSpec struct {
	start    <-chan struct{}
	received *atomic.Int64
}

func (s *floodSpec) Kind() string    { return "flood" }
func (s *floodSpec) Validate() error { return nil }

func (s *floodSpec) Run(ctx context.Context, progress func(done, total int)) (*engine.Output, error) {
	return nil, fmt.Errorf("flood spec runs observed only")
}

func (s *floodSpec) RunObserved(ctx context.Context, progress func(done, total int), observer obs.Observer) (*engine.Output, error) {
	select {
	case <-s.start:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(30 * time.Second)
	tr := observer.Begin(0)
	for round := 1; round <= 4000; round++ {
		tr.Round(round, 4000, round%9+1, round%4, round%13+4)
		for round%200 == 0 && round < 4000 && s.received.Load() < int64(round) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	tr.End()
	return &engine.Output{}, nil
}

// smallSendBuffers shrinks each accepted connection's send buffer, so
// a client that stops reading stalls the server's writes within a few
// kilobytes rather than the megabytes the kernel may grow it to.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096)
	}
	return c, err
}

// waitGauge polls /metrics until the unlabeled gauge reads want.
func waitGauge(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	got := "absent"
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(string(rawGet(t, ts.URL+"/metrics")), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				got = v
			}
		}
		if got == fmt.Sprint(want) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s = %s, want %v", name, got, want)
}

// TestEventsStalledReaderBlocksNothing checks that a client which opens
// /events and never reads holds up nothing but its own stream: a second
// client following the same job receives every frame and the terminal
// status, the job finishes, and cobrad_hub_subscribers returns to 0 once
// the stalled client closes.
func TestEventsStalledReaderBlocksNothing(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	ts := httptest.NewUnstartedServer(New(eng).Handler())
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	})
	start := make(chan struct{})
	var received atomic.Int64
	job, err := eng.Submit(&floodSpec{start: start, received: &received}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled client asks for the stream on a raw connection with a
	// small receive buffer and never reads a byte.
	addr := ts.Listener.Addr().String()
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	if _, err := fmt.Fprintf(stalled, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: %s\r\n\r\n", job.ID(), addr); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, ts, "cobrad_hub_subscribers", 1)

	// The follower reads to the end of the stream, releasing the job
	// once its first event shows the stream is open.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()
	var got []obs.Frame
	var final engine.Status
	var ev sseRawEvent
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" {
				if events++; events == 1 {
					close(start)
				}
			}
			switch ev.event {
			case "status":
				if err := json.Unmarshal([]byte(ev.data), &final); err != nil {
					t.Fatalf("bad status event %q: %v", ev.data, err)
				}
			case "frames":
				var batch []obs.Frame
				if err := json.Unmarshal([]byte(ev.data), &batch); err != nil {
					t.Fatalf("bad frames event %q: %v", ev.data, err)
				}
				got = append(got, batch...)
				if ev.id != fmt.Sprint(len(got)) {
					t.Fatalf("frames event with id %s brings the stream to %d frames", ev.id, len(got))
				}
				received.Store(int64(len(got)))
			}
			ev = sseRawEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read event stream: %v", err)
	}
	if final.State != engine.Done {
		t.Fatalf("follower's last status %s (%s), want done", final.State, final.Error)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatalf("job: %v", err)
	}
	if len(got) != 4000 {
		t.Fatalf("follower received %d frames, want 4000", len(got))
	}
	retained, next := job.Series().Since(0)
	if next != 4000 {
		t.Fatalf("job recorded %d frames, want 4000", next)
	}
	for i, f := range retained {
		if g := got[len(got)-len(retained)+i]; g != f {
			t.Fatalf("frame %d: streamed %+v, series holds %+v", 4000-len(retained)+i, g, f)
		}
	}

	// The stalled stream is still open, its handler held by a write the
	// client does not read; closing the client ends it.
	waitGauge(t, ts, "cobrad_hub_subscribers", 1)
	stalled.Close()
	waitGauge(t, ts, "cobrad_hub_subscribers", 0)
}

// replaySpec is an observable service-test job: it traces a fixed frame
// sequence that wraps the default 512-frame ring (covered counts that
// fall between trials, unknown positions as -1), reports on recorded,
// then blocks until released.
type replaySpec struct {
	recorded chan<- struct{}
	release  <-chan struct{}
}

func (s *replaySpec) Kind() string    { return "replay" }
func (s *replaySpec) Validate() error { return nil }

func (s *replaySpec) Run(ctx context.Context, progress func(done, total int)) (*engine.Output, error) {
	return nil, fmt.Errorf("replay spec runs observed only")
}

func (s *replaySpec) RunObserved(ctx context.Context, progress func(done, total int), observer obs.Observer) (*engine.Output, error) {
	for trial := 0; trial < 2; trial++ {
		tr := observer.Begin(trial)
		for round := 1; round <= 300; round++ {
			covered := (round*(7+trial))%1000 + 1
			minPos, maxPos := round%5-1, round/3-trial
			tr.Round(covered, 1000, round%17+1, minPos, maxPos)
		}
		tr.End()
	}
	close(s.recorded)
	select {
	case <-s.release:
		return &engine.Output{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// rawGet returns the body of a GET that must answer 200.
func rawGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return data
}

// sseReplay returns the raw bytes an events stream sends before its
// first status event: the frames backfill from lastEventID.
func sseReplay(t *testing.T, url, lastEventID string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", lastEventID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()
	var replay strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() && sc.Text() != "event: status" {
		replay.WriteString(sc.Text())
		replay.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read event stream: %v", err)
	}
	return replay.String()
}

// TestFinishedSeriesMatchesRunning pins that a job's frames read the
// same once it has finished: every /series cursor from 0 to next+1 and
// the SSE replay at several Last-Event-IDs answer byte for byte what
// they answered while the job ran, over a sequence that wrapped the
// ring.
func TestFinishedSeriesMatchesRunning(t *testing.T) {
	ts, eng := newTestServer(t, engine.Options{Workers: 1})
	recorded, release := make(chan struct{}), make(chan struct{})
	job, err := eng.Submit(&replaySpec{recorded: recorded, release: release}, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-recorded
	next := job.Series().Frames()
	if next != 600 {
		t.Fatalf("recorded %d frames, want 600", next)
	}
	read := func() (series [][]byte, replays []string) {
		for c := uint64(0); c <= next+1; c++ {
			series = append(series, rawGet(t, fmt.Sprintf("%s/v1/jobs/%s/series?since=%d", ts.URL, job.ID(), c)))
		}
		for _, id := range []uint64{0, 1, 88, 89, 300, next - 1, next, next + 1} {
			replays = append(replays, sseReplay(t, ts.URL+"/v1/jobs/"+job.ID()+"/events", fmt.Sprint(id)))
		}
		return series, replays
	}
	runningSeries, runningReplays := read()
	if !strings.Contains(runningReplays[0], fmt.Sprintf("id: %d\n", next)) {
		t.Fatalf("replay from 0 sent no frames up to %d:\n%.200s", next, runningReplays[0])
	}
	close(release)
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	finishedSeries, finishedReplays := read()
	for c := range runningSeries {
		if !bytes.Equal(runningSeries[c], finishedSeries[c]) {
			t.Fatalf("series?since=%d changed when the job finished:\nrunning  %.300s\nfinished %.300s",
				c, runningSeries[c], finishedSeries[c])
		}
	}
	for i := range runningReplays {
		if runningReplays[i] != finishedReplays[i] {
			t.Fatalf("SSE replay %d changed when the job finished:\nrunning  %.300s\nfinished %.300s",
				i, runningReplays[i], finishedReplays[i])
		}
	}
}

// pacedSpec is an observable service-test job that waits for start,
// then traces two trials of 150 rounds, pausing 40 ms after every 10
// rounds so a live stream reads the series many times while it grows.
// Each trial reports progress when it ends.
type pacedSpec struct {
	start <-chan struct{}
}

func (s *pacedSpec) Kind() string    { return "paced" }
func (s *pacedSpec) Validate() error { return nil }

func (s *pacedSpec) Run(ctx context.Context, progress func(done, total int)) (*engine.Output, error) {
	return nil, fmt.Errorf("paced spec runs observed only")
}

func (s *pacedSpec) RunObserved(ctx context.Context, progress func(done, total int), observer obs.Observer) (*engine.Output, error) {
	select {
	case <-s.start:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for trial := 0; trial < 2; trial++ {
		tr := observer.Begin(trial)
		for round := 1; round <= 150; round++ {
			tr.Round(round, 300, round%7+1, round%3, round%11+trial)
			if round%10 == 0 {
				time.Sleep(40 * time.Millisecond)
			}
		}
		tr.End()
		progress(trial+1, 2)
	}
	return &engine.Output{}, nil
}

// sseRawEvent is one event of a stream, in arrival order.
type sseRawEvent struct {
	id, event, data string
}

// TestEventsLiveStreamIsLossless pins live delivery: a stream opened
// before the job's first frame receives every frame the job records
// exactly once, field for field and in cursor order, and the terminal
// status is its last event.
func TestEventsLiveStreamIsLossless(t *testing.T) {
	ts, eng := newTestServer(t, engine.Options{Workers: 1})
	start := make(chan struct{})
	job, err := eng.Submit(&pacedSpec{start: start}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()

	// Read the whole stream, releasing the job once its first status
	// event shows the stream is open.
	var events []sseRawEvent
	var ev sseRawEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" {
				if len(events) == 0 {
					close(start)
				}
				events = append(events, ev)
			}
			ev = sseRawEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read event stream: %v", err)
	}
	if len(events) == 0 || events[0].event != "status" {
		t.Fatalf("stream did not open with a status event: %+v", events)
	}

	var got []obs.Frame
	var lastID uint64
	for i, ev := range events {
		switch ev.event {
		case "status":
			var st engine.Status
			if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
				t.Fatalf("bad status event %q: %v", ev.data, err)
			}
			if last := i == len(events)-1; st.State.Terminal() != last {
				t.Fatalf("event %d of %d is status %s: the terminal status must be the last event", i+1, len(events), st.State)
			}
			if i == len(events)-1 && st.State != engine.Done {
				t.Fatalf("final status %s (%s), want done", st.State, st.Error)
			}
		case "frames":
			var id uint64
			if _, err := fmt.Sscanf(ev.id, "%d", &id); err != nil {
				t.Fatalf("bad frames id %q: %v", ev.id, err)
			}
			if id <= lastID {
				t.Fatalf("frames id %d after %d: cursors must strictly increase", id, lastID)
			}
			lastID = id
			var batch []obs.Frame
			if err := json.Unmarshal([]byte(ev.data), &batch); err != nil {
				t.Fatalf("bad frames event %q: %v", ev.data, err)
			}
			got = append(got, batch...)
			if uint64(len(got)) != id {
				t.Fatalf("frames event with id %d brings the stream to %d frames", id, len(got))
			}
		}
	}

	want, next := job.Series().Since(0)
	if next != 300 || len(want) != 300 {
		t.Fatalf("series holds %d frames, next %d; want 300 and 300", len(want), next)
	}
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d frames, series holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: streamed %+v, series holds %+v", i, got[i], want[i])
		}
	}
}

package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Follow streams the job's Server-Sent-Events status feed until the job
// reaches a terminal state, the stream ends, or ctx is done. Each
// decoded status — the feed coalesces to the latest, so slow consumers
// skip intermediate progress but never the terminal state — is passed
// to onStatus when non-nil. The terminal status is returned. Unlike
// FollowLive, Follow opens one connection and ignores frame batches.
func (c *Client) Follow(ctx context.Context, id string, onStatus func(engine.Status)) (engine.Status, error) {
	var cursor string
	st, terminal, err := c.followLiveOnce(ctx, id, &cursor, onStatus, nil)
	switch {
	case err != nil && ctx.Err() != nil:
		return engine.Status{}, ctx.Err()
	case err != nil:
		return engine.Status{}, err
	case !terminal:
		// cobrad closes the stream only after the terminal status event,
		// so a clean end before it means the daemon went away mid-job.
		return engine.Status{}, fmt.Errorf("client: events stream %s ended before a terminal status", id)
	}
	return st, nil
}

// followLiveOnce holds one SSE connection open, dispatching events and
// advancing *cursor as frames arrive. It reports the last status seen
// and whether it was terminal. Frame batches are decoded only for a
// non-nil onFrames; the cursor advances either way.
func (c *Client) followLiveOnce(ctx context.Context, id string, cursor *string, onStatus func(engine.Status), onFrames func([]obs.Frame)) (engine.Status, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return engine.Status{}, false, fmt.Errorf("client: build events request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if *cursor != "" {
		req.Header.Set("Last-Event-ID", *cursor)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return engine.Status{}, false, fmt.Errorf("client: events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data := make([]byte, 4096)
		n, _ := resp.Body.Read(data)
		return engine.Status{}, false, decodeError(resp.StatusCode, data[:n])
	}

	var last engine.Status
	terminal := false
	err = readEvents(resp.Body, func(eventID, event, data string) (bool, error) {
		switch event {
		case "status":
			var st engine.Status
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return false, fmt.Errorf("decode status event: %w", err)
			}
			last, terminal = st, st.State.Terminal()
			if onStatus != nil {
				onStatus(st)
			}
		case "frames":
			if onFrames != nil {
				var frames []obs.Frame
				if err := json.Unmarshal([]byte(data), &frames); err != nil {
					return false, fmt.Errorf("decode frames event: %w", err)
				}
				if len(frames) > 0 {
					onFrames(frames)
				}
			}
			if eventID != "" {
				*cursor = eventID
			}
		}
		return terminal, nil
	})
	if err != nil {
		return engine.Status{}, false, fmt.Errorf("client: events stream %s: %w", id, err)
	}
	return last, terminal, nil
}

// readEvents scans the SSE subset cobrad emits — "id:", "event:" and
// "data:" lines, a blank line ending each event, ":" comment
// keep-alives — and hands every event that carries data to on, until
// on reports done or fails, or the stream ends. An event still pending
// at a clean end of stream is dispatched too.
func readEvents(r io.Reader, on func(id, event, data string) (done bool, err error)) error {
	var id, event string
	var data strings.Builder
	dispatch := func() (bool, error) {
		defer func() { id, event = "", ""; data.Reset() }()
		if data.Len() == 0 {
			return false, nil
		}
		return on(id, event, data.String())
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if done, err := dispatch(); done || err != nil {
				return err
			}
		case strings.HasPrefix(line, ":"):
			// Comment keep-alive.
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := dispatch()
	return err
}

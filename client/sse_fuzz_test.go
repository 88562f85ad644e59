package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// FuzzReadEvents feeds arbitrary network bytes to the SSE reader with a
// handler that decodes events as FollowLive does: a status event ends
// the stream when terminal, and an undecodable status or frames batch
// fails it. The reader must never panic, must dispatch only events that
// carry data, must stop at the first done or failed event, and may fail
// only with the handler's error or a line over the scanner's limit. The
// committed corpus holds a stream captured from cobrad (status, frames
// and keep-alive comments), a torn last event, and an over-long line;
// the inline seed sends an event after a terminal status.
func FuzzReadEvents(f *testing.F) {
	f.Add([]byte("event: status\ndata: {\"state\":\"done\"}\n\nevent: status\ndata: {\"state\":\"running\"}\n\n"))
	errDecode := errors.New("decode")
	f.Fuzz(func(t *testing.T, stream []byte) {
		var done, failed bool
		err := readEvents(bytes.NewReader(stream), func(id, event, data string) (bool, error) {
			if done || failed {
				t.Fatalf("event %q dispatched after the reader was told to stop", event)
			}
			if data == "" {
				t.Fatalf("event %q (id %q) dispatched without data", event, id)
			}
			var v any
			switch event {
			case "status":
				v = new(engine.Status)
			case "frames":
				v = new([]obs.Frame)
			default:
				return false, nil
			}
			if err := json.Unmarshal([]byte(data), v); err != nil {
				failed = true
				return false, errDecode
			}
			if st, ok := v.(*engine.Status); ok && st.State.Terminal() {
				done = true
			}
			return done, nil
		})
		switch {
		case done && err != nil:
			t.Fatalf("readEvents failed with %v after a terminal status", err)
		case failed && !errors.Is(err, errDecode):
			t.Fatalf("readEvents returned %v, not the handler's error", err)
		case !failed && err != nil && !errors.Is(err, bufio.ErrTooLong):
			t.Fatalf("readEvents failed with %v, not the handler's error or an over-long line", err)
		}
	})
}

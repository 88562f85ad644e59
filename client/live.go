package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/retry"
)

// SeriesView is the GET /v1/jobs/{id}/series document: the retained
// per-round observable frames of a job's traced trial.
type SeriesView struct {
	// Job is the job ID the series belongs to.
	Job string `json:"job"`
	// Frames are the retained frames in sequence order.
	Frames []obs.Frame `json:"frames"`
	// Next is the cursor to pass as since to read only newer frames.
	Next uint64 `json:"next"`
	// Capacity is the server-side ring capacity; older frames are gone.
	Capacity int `json:"capacity"`
}

// Series fetches the job's observable series. since resumes from a
// cursor returned in a previous view's Next (0 reads everything
// retained).
func (c *Client) Series(ctx context.Context, id string, since uint64) (SeriesView, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/series"
	if since > 0 {
		path += "?since=" + strconv.FormatUint(since, 10)
	}
	var out SeriesView
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return SeriesView{}, err
	}
	return out, nil
}

// followLiveReconnects bounds how many times FollowLive reopens a
// dropped stream before giving up.
const followLiveReconnects = 5

// followLivePolicy is FollowLive's reconnect schedule, expressed on
// the same retryable-transport helper the cluster RPC client rides:
// bounded attempts, exponential backoff, context-aware sleeps. Jitter
// is zero so reconnect timing stays deterministic for tests.
func followLivePolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: followLiveReconnects + 1,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}
}

// followLiveRetryable classifies one dropped stream: a typed API error
// (404, 400, ...) will not heal on retry; anything else — transport
// failures, 5xx, a stream that ended early — is worth reconnecting.
func followLiveRetryable(err error) bool {
	if apiErr, ok := err.(*Error); ok {
		return apiErr.IsRetryable()
	}
	return true
}

// FollowLive streams the job's multiplexed SSE feed — status updates
// plus per-round observable frame batches — until the job is terminal
// or ctx is done. Unlike Follow, a dropped stream is reopened (up to a
// bounded number of attempts) with the Last-Event-ID cursor of the
// last frames event seen, so a reconnect resumes the frame sequence
// without replaying delivered frames. onStatus and onFrames may each
// be nil. The terminal status is returned.
func (c *Client) FollowLive(ctx context.Context, id string, onStatus func(engine.Status), onFrames func([]obs.Frame)) (engine.Status, error) {
	var cursor string
	var final engine.Status
	err := followLivePolicy().Do(ctx, followLiveRetryable, func() error {
		st, terminal, err := c.followLiveOnce(ctx, id, &cursor, onStatus, onFrames)
		if terminal {
			final = st
			return nil
		}
		if err == nil {
			err = fmt.Errorf("client: events stream %s ended before a terminal status", id)
		}
		return err
	})
	if err == nil {
		return final, nil
	}
	if ctx.Err() != nil {
		return engine.Status{}, ctx.Err()
	}
	if apiErr, ok := err.(*Error); ok && !apiErr.IsRetryable() {
		return engine.Status{}, apiErr
	}
	return engine.Status{}, fmt.Errorf("client: follow %s: gave up after %d reconnects: %w", id, followLiveReconnects, err)
}

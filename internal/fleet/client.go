// Package fleet coordinates a SWIFI campaign across a roster of
// hauberkd nodes: one plan, split over the store's shard-IofN layout,
// dispatched shard-by-shard over the daemons' HTTP API, with per-node
// health verdicts, failover re-dispatch when a node dies mid-shard,
// and a read-side merge whose figure digest is byte-identical to a
// single-node run. The paper's campaigns (Section VIII) are thousands
// of single-fault experiments whose plan is seeded and deterministic —
// which is exactly what makes farming them out safe: any node, any
// retry, any re-dispatch produces the same records.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/service"
)

// Transport is the fleet-wide RPC policy shared by every node client:
// one HTTP client with a per-RPC timeout, bounded retries on the
// guardian's doubling schedule, a capped-and-jittered honoring of
// Retry-After pushback, and the chaos plan's net family indexed by a
// process-wide RPC attempt sequence. The sequence never restarts, so
// every planned net fault hits exactly one attempt and is transient by
// construction — the retry envelope absorbs it without changing any
// result byte.
type Transport struct {
	// HTTP issues the requests; its Timeout is the per-RPC deadline.
	HTTP *http.Client
	// Backoff delays retries (milliseconds), sharing the guardian's
	// doubling schedule with the campaign engine's injection retries.
	Backoff guardian.BackoffPolicy
	// MaxAttempts bounds tries per RPC (min 1); the attempt budget is
	// what turns a netdrop/netstall chaos entry or a 429 burst into a
	// delay instead of a hang or an unbounded loop.
	MaxAttempts int
	// RetryAfterCap bounds an honored Retry-After hint so a confused or
	// hostile server cannot park the caller for minutes.
	RetryAfterCap time.Duration
	// Chaos, when non-nil, injects the plan's net-family faults.
	Chaos *chaos.Plan
	// Sleep replaces time.Sleep (retry backoff, chaos stalls and the
	// coordinator's status pacing) in tests; nil sleeps for real.
	Sleep func(time.Duration)
	// Jitter returns a factor in [0,1) for retry-delay spreading; nil
	// uses math/rand. Tests pin it for determinism.
	Jitter func() float64

	seq     atomic.Int64
	retries atomic.Int64
}

// NewTransport builds a transport with the fleet defaults: 4 attempts
// per RPC, 100ms doubling backoff capped at 2s, Retry-After honored up
// to 5s.
func NewTransport(rpcTimeout time.Duration) *Transport {
	if rpcTimeout <= 0 {
		rpcTimeout = 10 * time.Second
	}
	return &Transport{
		HTTP:          &http.Client{Timeout: rpcTimeout},
		Backoff:       guardian.BackoffPolicy{Init: 100, Factor: 2, Max: 2000},
		MaxAttempts:   4,
		RetryAfterCap: 5 * time.Second,
	}
}

// Retries reports the total retried RPC attempts (for metrics).
func (t *Transport) Retries() int64 { return t.retries.Load() }

func (t *Transport) sleep(ctx context.Context, d time.Duration) error {
	if t.Sleep != nil {
		t.Sleep(d)
		return ctx.Err()
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// jittered spreads d by ±25% so concurrent clients backing off from
// the same pushback don't re-arrive in lockstep.
func (t *Transport) jittered(d time.Duration) time.Duration {
	f := rand.Float64 //nolint:gosec // scheduling jitter, not crypto
	if t.Jitter != nil {
		f = t.Jitter
	}
	return d - d/4 + time.Duration(f()*float64(d/2))
}

// retryAfterDelay converts a Retry-After header (whole seconds) into a
// bounded, jittered sleep. Absent or malformed hints fall back to the
// backoff schedule's value for this attempt.
func (t *Transport) retryAfterDelay(hint string, attempt int) time.Duration {
	d := time.Duration(t.Backoff.Delay(attempt)) * time.Millisecond
	if n, err := strconv.Atoi(strings.TrimSpace(hint)); err == nil && n > 0 {
		d = time.Duration(n) * time.Second
	}
	if t.RetryAfterCap > 0 && d > t.RetryAfterCap {
		d = t.RetryAfterCap
	}
	return t.jittered(d)
}

// Client issues RPCs against one hauberkd node under the shared
// transport policy.
type Client struct {
	// Base is the node's normalized base URL; Name is its host:port
	// label for logs, metrics and verdicts.
	Base string
	Name string
	t    *Transport
}

// Client builds a node client. Bare host:port addresses get http://.
func (t *Transport) Client(base string) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	name := base
	if i := strings.Index(name, "://"); i >= 0 {
		name = name[i+3:]
	}
	return &Client{Base: base, Name: name, t: t}
}

// StatusError is a non-retryable HTTP failure (any 4xx except 429).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.Code, e.Msg)
}

// retryAfterError is a transient failure carrying server pushback.
type retryAfterError struct {
	hint string
}

func (e *retryAfterError) Error() string { return "server pushback (429)" }

// once issues one attempt: chaos first (a planned netdrop fails before
// any bytes reach the wire; a netstall holds the attempt open until the
// per-RPC deadline), then the real request. wantCode is the expected
// success status.
func (c *Client) once(ctx context.Context, method, path string, body []byte, wantCode int, out any) error {
	seq := int(c.t.seq.Add(1) - 1)
	if c.t.Chaos != nil {
		switch c.t.Chaos.Net(seq) {
		case chaos.ModeNetDrop:
			return fmt.Errorf("fleet: chaos netdrop (rpc %d)", seq)
		case chaos.ModeNetStall:
			timeout := 10 * time.Second
			if c.t.HTTP != nil && c.t.HTTP.Timeout > 0 {
				timeout = c.t.HTTP.Timeout
			}
			if err := c.t.sleep(ctx, timeout); err != nil {
				return err
			}
			return fmt.Errorf("fleet: chaos netstall (rpc %d)", seq)
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.t.HTTP.Do(req)
	if err != nil {
		return err
	}
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close() //nolint:errcheck
	if rerr != nil {
		return rerr
	}
	switch {
	case resp.StatusCode == wantCode:
		switch out := out.(type) {
		case nil:
			return nil
		case *[]byte:
			*out = raw
			return nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("fleet: decode %s %s: %w", method, path, err)
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return &retryAfterError{hint: resp.Header.Get("Retry-After")}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(raw))}
	default:
		return fmt.Errorf("fleet: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
}

// do runs one RPC with the transport's bounded retry envelope:
// transport errors, 5xx and 429 retry up to MaxAttempts on the backoff
// schedule (429 honoring its capped, jittered Retry-After); 4xx are
// permanent and return immediately.
func (c *Client) do(ctx context.Context, method, path string, body []byte, wantCode int, out any) error {
	attempts := c.t.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.t.retries.Add(1)
			var delay time.Duration
			if ra, ok := lastErr.(*retryAfterError); ok {
				delay = c.t.retryAfterDelay(ra.hint, attempt-1)
			} else {
				delay = c.t.jittered(time.Duration(c.t.Backoff.Delay(attempt-1)) * time.Millisecond)
			}
			if err := c.t.sleep(ctx, delay); err != nil {
				return err
			}
		}
		lastErr = c.once(ctx, method, path, body, wantCode, out)
		if lastErr == nil {
			return nil
		}
		if _, permanent := lastErr.(*StatusError); permanent || ctx.Err() != nil {
			return fmt.Errorf("fleet: %s: %s %s: %w", c.Name, method, path, lastErr)
		}
	}
	return fmt.Errorf("fleet: %s: %s %s failed after %d attempts: %w",
		c.Name, method, path, attempts, lastErr)
}

// Submit posts one campaign submission (typically shard-scoped).
func (c *Client) Submit(ctx context.Context, sub service.Submission) (service.Status, error) {
	var st service.Status
	body, err := json.Marshal(sub)
	if err != nil {
		return st, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/campaigns", body, http.StatusCreated, &st)
	return st, err
}

// Wait long-polls one campaign's status: the node answers as soon as the
// campaign settles (done, failed, canceled or interrupted), or after d
// with the status as it then is. d is clamped to half the per-RPC timeout,
// so a parked request is never mistaken for a dead node; d <= 0 answers
// at once. A node that predates ?wait= answers at once as well.
func (c *Client) Wait(ctx context.Context, id string, d time.Duration) (service.Status, error) {
	path := "/v1/campaigns/" + id
	if lim := c.t.HTTP.Timeout / 2; lim > 0 && d > lim {
		d = lim
	}
	if d > 0 {
		path += "?wait=" + d.String()
	}
	var st service.Status
	err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK, &st)
	return st, err
}

// List fetches every campaign the node knows.
func (c *Client) List(ctx context.Context) ([]service.Status, error) {
	var doc struct {
		Campaigns []service.Status `json:"campaigns"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, http.StatusOK, &doc)
	return doc.Campaigns, err
}

// Cancel cancels one campaign.
func (c *Client) Cancel(ctx context.Context, id string) (service.Status, error) {
	var st service.Status
	err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, http.StatusOK, &st)
	return st, err
}

// Store fetches a campaign's durable store (manifest + raw shard logs)
// for the coordinator's read-side merge.
func (c *Client) Store(ctx context.Context, id string) (service.StoreSnapshot, error) {
	var snap service.StoreSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/store", nil, http.StatusOK, &snap)
	return snap, err
}

// Node fetches the daemon's own health document.
func (c *Client) Node(ctx context.Context) (service.NodeStatus, error) {
	var ns service.NodeStatus
	err := c.do(ctx, http.MethodGet, "/v1/node", nil, http.StatusOK, &ns)
	return ns, err
}

// Probe is a single-attempt readiness check (GET /readyz): no retry
// envelope, because the caller is the health fold itself — a probe
// failure is a signal to record, not a fault to absorb.
func (c *Client) Probe(ctx context.Context) error {
	return c.once(ctx, http.MethodGet, "/readyz", nil, http.StatusOK, nil)
}

// Get fetches one path's raw body under the retry envelope: a monitor's
// /metrics exposition, or a health probe.
func (c *Client) Get(ctx context.Context, path string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK, &raw)
	return raw, err
}

// Event is what a client checks of one event-feed entry: its journal
// sequence number and type.
type Event struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
}

// Events streams one campaign's event feed — retained history, then live
// events — handing each to fn until fn returns false, the feed ends, or
// ctx ends. A feed is a long-lived response: it runs under ctx's
// deadline, not the per-RPC timeout, and outside the retry envelope.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	stream := *c.t.HTTP
	stream.Timeout = 0
	resp, err := stream.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: events of %s: %w", c.Name, id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("fleet: %s: events of %s: %w", c.Name, id,
			&StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(raw))})
	}
	if err := readEvents(resp.Body, fn); err != nil {
		return fmt.Errorf("fleet: %s: events of %s: %w", c.Name, id, err)
	}
	return nil
}

// maxEventLine bounds one feed line; a journal event is a few hundred
// bytes.
const maxEventLine = 64 << 10

// readEvents is the one event-feed reader: NDJSON lines, or SSE frames
// ("data: " lines between blank ones). Every event must be a JSON object
// with a type and a sequence number above its predecessor's; a feed that
// breaks that is an error, never skipped.
func readEvents(r io.Reader, fn func(Event) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4<<10), maxEventLine)
	var last uint64
	for n := 1; sc.Scan(); {
		line := bytes.TrimPrefix(sc.Bytes(), []byte("data: "))
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("event %d is not a JSON event: %w", n, err)
		}
		if e.Type == "" {
			return fmt.Errorf("event %d has no type", n)
		}
		if e.Seq <= last {
			return fmt.Errorf("event %d: sequence regressed: %d after %d", n, e.Seq, last)
		}
		last = e.Seq
		n++
		if !fn(e) {
			return nil
		}
	}
	return sc.Err()
}

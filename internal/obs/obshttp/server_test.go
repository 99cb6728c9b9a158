package obshttp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hauberk/internal/obs"
	"hauberk/internal/obs/promtext"
)

// startMonitor boots a server on an ephemeral port with a broadcaster's
// feed mounted at /events and its drop counter on /metrics.
func startMonitor(t *testing.T) (*Server, *obs.Broadcaster, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	b := obs.NewBroadcaster(nil)
	s := New(Config{Addr: "127.0.0.1:0", Registry: reg, Dropped: b.Dropped})
	s.Handle("GET /events", EventsHandler(b))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		b.Close()       //nolint:errcheck
	})
	return s, b, reg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func emit(b *obs.Broadcaster, seq uint64, typ string, fields ...obs.Field) {
	b.Emit(obs.Event{Seq: seq, Wall: time.Unix(int64(seq), 0), Type: typ, Fields: fields})
}

func TestMonitorMetricsEndpoint(t *testing.T) {
	s, _, reg := startMonitor(t)
	reg.Counter("hauberk_faults_injected_total", "program", "CP").Add(7)
	reg.Histogram("hauberk_detect_ms", []float64{1, 10, 100}).Observe(3)

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	exp, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("live /metrics does not parse strictly: %v", err)
	}
	if v, ok := exp.Sample("hauberk_faults_injected_total", "hauberk_faults_injected_total",
		map[string]string{"program": "CP"}); !ok || v != 7 {
		t.Fatalf("registry counter: %v %v", v, ok)
	}
	// Process series stamped at scrape time.
	bi := exp.Family("hauberk_build_info")
	if bi == nil || len(bi.Samples) != 1 || bi.Samples[0].Value != 1 {
		t.Fatalf("build info family: %+v", bi)
	}
	if bi.Samples[0].Labels["version"] == "" || bi.Samples[0].Labels["goversion"] == "" {
		t.Fatalf("build info labels: %v", bi.Samples[0].Labels)
	}
	if f := exp.Family("hauberk_goroutines"); f == nil || f.Samples[0].Value < 1 {
		t.Fatalf("goroutines: %+v", f)
	}
	if f := exp.Family("hauberk_uptime_seconds"); f == nil || f.Samples[0].Value < 0 {
		t.Fatalf("uptime: %+v", f)
	}
	if f := exp.Family("hauberk_events_dropped_total"); f == nil {
		t.Fatal("events_dropped_total missing")
	}
}

func TestMonitorEventsNDJSON(t *testing.T) {
	s, b, _ := startMonitor(t)
	for i := 1; i <= 3; i++ {
		emit(b, uint64(i), obs.EvCampaignProgress, obs.Int("done", int64(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+s.Addr()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	// Live event after the stream is attached, interleaved with replay.
	go emit(b, 4, obs.EvCampaignDone, obs.Str("program", "CP"))
	sc := bufio.NewScanner(resp.Body)
	var seqs []uint64
	for len(seqs) < 4 && sc.Scan() {
		var e struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		seqs = append(seqs, e.Seq)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("stream seqs %v, want 1..4 (replay then live, gap-free)", seqs)
		}
	}
}

func TestMonitorEventsSSEAndReplayBound(t *testing.T) {
	s, b, _ := startMonitor(t)
	for i := 1; i <= 10; i++ {
		emit(b, uint64(i), obs.EvCampaignProgress)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET",
		"http://"+s.Addr()+"/events?format=sse&replay=2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var frames []string
	for len(frames) < 2 && sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			frames = append(frames, strings.TrimPrefix(line, "data: "))
		}
	}
	// replay=2 bounds history to the last two events (seq 9, 10).
	for i, want := range []uint64{9, 10} {
		var e struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(frames[i]), &e); err != nil {
			t.Fatalf("bad SSE data %q: %v", frames[i], err)
		}
		if e.Seq != want {
			t.Fatalf("SSE replay frame %d has seq %d, want %d", i, e.Seq, want)
		}
	}

	if code, _ := get(t, "http://"+s.Addr()+"/events?replay=-3"); code != http.StatusBadRequest {
		t.Fatalf("negative replay: status %d, want 400", code)
	}
}

func TestMonitorDisabledEndpoints(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", Registry: obs.NewRegistry()})
	s.Handle("GET /events", EventsHandler(nil))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	if code, _ := get(t, "http://"+s.Addr()+"/events"); code != http.StatusGone {
		t.Fatalf("events without broadcaster: %d, want 410", code)
	}
	// The process-wide status document is gone: a campaign's status is
	// the /v1 read API's (internal/service).
	if code, _ := get(t, "http://"+s.Addr()+"/campaign"); code != http.StatusNotFound {
		t.Fatalf("/campaign: %d, want 404", code)
	}
	// Without a probe, readiness degrades to liveness.
	if code, _ := get(t, "http://"+s.Addr()+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz without probe: %d", code)
	}
}

func TestMonitorPprofMounted(t *testing.T) {
	s, _, _ := startMonitor(t)
	code, body := get(t, "http://"+s.Addr()+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("pprof cmdline: %d %q", code, body)
	}
}

// TestMonitorShutdownWithOpenStream pins the force-close fallback: an
// /events client that never disconnects must not wedge Shutdown.
func TestMonitorShutdownWithOpenStream(t *testing.T) {
	b := obs.NewBroadcaster(nil)
	s := New(Config{Addr: "127.0.0.1:0", Registry: obs.NewRegistry()})
	s.Handle("GET /events", EventsHandler(b))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // the drain deadline firing is the point
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown wedged on an open /events stream")
	}
	b.Close()

	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", s.Addr())); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

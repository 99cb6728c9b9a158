package service

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hauberk/internal/harness"
)

// TestDaemonShedsPastRetentionBound: once more than retainedCampaigns
// campaigns have finished, the oldest shed their telemetry plane. A shed
// campaign answers its status and its store with the bytes it answered
// before, and its event feed with 410; a stream open when it sheds ends
// cleanly; the dropped-event total never decreases; the daemon's /metrics
// counts every injection its campaigns ran; and each campaign past the
// bound costs less than 4 kB of heap. After a restart every terminal
// campaign is born shed.
func TestDaemonShedsPastRetentionBound(t *testing.T) {
	root := t.TempDir()
	// No Logf: the test's log buffer would grow with every campaign and
	// count in the heap measurement.
	d, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: root, Slots: 2, QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(d) }) //nolint:errcheck // best-effort cleanup
	base := "http://" + d.Addr()

	// The first campaign's events overflow a subscriber that never reads,
	// so its broadcaster has dropped some by the time it sheds.
	SetTestOptsHook(func(c *Campaign, _ *harness.CampaignOptions) {
		if c.ID == "c000001" {
			c.events().Subscribe(1)
		}
	})
	t.Cleanup(func() { SetTestOptsHook(nil) })

	first := runTiny(t, d, 1)[0]
	status, store := httpBody(t, base+"/v1/campaigns/"+first.ID), httpBody(t, base+"/v1/campaigns/"+first.ID+"/store")
	dropped := scrape(t, base, "hauberk_events_dropped_total")
	if dropped < 1 {
		t.Fatalf("hauberk_events_dropped_total = %d before shedding, want the stalled subscriber's drops", dropped)
	}
	openEvents(t, base, first.ID).Close() //nolint:errcheck

	// Past the bound: first has shed. The newest campaign is retained, and
	// a stream of its events stays open while the next batch sheds it.
	cs := runTiny(t, d, retainedCampaigns+49)
	newest := cs[len(cs)-1]
	stream := openEvents(t, base, newest.ID)
	defer stream.Close()

	const extra = 512
	heap0 := liveHeap()
	newest2 := runTiny(t, d, extra)[extra-1]
	heap1 := liveHeap()
	perCampaign := (float64(heap1) - float64(heap0)) / extra
	t.Logf("live heap %d -> %d bytes over %d campaigns past the bound: %.0f B each", heap0, heap1, extra, perCampaign)
	if perCampaign >= 4<<10 {
		t.Errorf("each campaign past the bound holds %.0f B of heap, want < 4 kB", perCampaign)
	}

	streamDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, stream)
		streamDone <- err
	}()
	select {
	case err := <-streamDone:
		if err != nil {
			t.Errorf("event stream of a shedding campaign ended with %v, want a clean end", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("event stream of %s still open after it shed", newest.ID)
	}

	if got := httpBody(t, base+"/v1/campaigns/"+first.ID); got != status {
		t.Errorf("status of a shed campaign changed:\n%s\nthen\n%s", status, got)
	}
	if got := httpBody(t, base+"/v1/campaigns/"+first.ID+"/store"); got != store {
		t.Errorf("store of a shed campaign changed")
	}
	expectGone(t, base, first.ID)
	if after := scrape(t, base, "hauberk_events_dropped_total"); after < dropped {
		t.Errorf("hauberk_events_dropped_total fell from %d to %d as its campaign shed", dropped, after)
	}

	injected := 0
	for _, st := range d.List() {
		injected += st.Progress.Completed
	}
	if exits := scrape(t, base, "hauberk_injection_exit_total"); exits != int64(injected) || injected == 0 {
		t.Errorf("hauberk_injection_exit_total sums to %d on /metrics, want the %d injections run", exits, injected)
	}

	if err := shutdown(d); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d2, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(d2) }) //nolint:errcheck // best-effort cleanup
	for _, id := range []string{first.ID, newest.ID, newest2.ID} {
		expectGone(t, "http://"+d2.Addr(), id)
	}
}

// runTiny submits n tiny RPES campaigns and waits until every one is done.
func runTiny(t *testing.T, d *Daemon, n int) []*Campaign {
	t.Helper()
	cs := make([]*Campaign, n)
	for i := range cs {
		c, err := d.Submit(Submission{Program: "RPES", Scale: "tiny"})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		cs[i] = c
	}
	for _, c := range cs {
		if st := awaitState(t, c, State.Terminal, "completion"); st != StateDone {
			t.Fatalf("%s finished %s", c.ID, st)
		}
	}
	return cs
}

// shutdown drains d within 30 s.
func shutdown(d *Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

// liveHeap is the heap still reachable after forced collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// openEvents opens a retained campaign's event stream.
func openEvents(t *testing.T, base, id string) io.ReadCloser {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close() //nolint:errcheck
		t.Fatalf("events of retained campaign %s: HTTP %d, want 200", id, resp.StatusCode)
	}
	return resp.Body
}

// httpBody GETs url and returns its 200 body.
func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
	}
	return string(raw)
}

// expectGone checks that campaign id's event feed answers 410, naming
// the retention bound.
func expectGone(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGone || !bytes.Contains(raw, []byte(strconv.Itoa(retainedCampaigns))) {
		t.Errorf("events of shed campaign %s: HTTP %d %s, want 410 naming the bound of %d", id, resp.StatusCode, raw, retainedCampaigns)
	}
}

// scrape sums every series of family on base's /metrics.
func scrape(t *testing.T, base, family string) int64 {
	t.Helper()
	var sum int64
	sc := bufio.NewScanner(strings.NewReader(httpBody(t, base+"/metrics")))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || (name != family && !strings.HasPrefix(name, family+"{")) {
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", sc.Text(), err)
		}
		sum += v
	}
	return sum
}

package fleet

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/service"
)

// testTransport builds a transport with instant sleeps (recorded for
// assertions) and jitter pinned to zero, so delay math is exact.
func testTransport(rpcTimeout time.Duration) (*Transport, *[]time.Duration) {
	var slept []time.Duration
	tr := NewTransport(rpcTimeout)
	tr.Sleep = func(d time.Duration) { slept = append(slept, d) }
	tr.Jitter = func() float64 { return 0 }
	return tr, &slept
}

func TestClientBounds429Retries(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "120") // hostile hint, far above the cap
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	tr, slept := testTransport(time.Second)
	tr.MaxAttempts = 3
	tr.RetryAfterCap = time.Second
	_, err := tr.Client(srv.URL).Submit(context.Background(), service.Submission{Program: "CP"})
	if err == nil {
		t.Fatal("endless 429s must eventually fail the RPC")
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want exactly MaxAttempts=3", n)
	}
	if len(*slept) != 2 {
		t.Fatalf("recorded %d retry sleeps, want 2", len(*slept))
	}
	// Jitter 0 maps a delay d to 0.75d, so the capped hint sleeps 750ms —
	// never the 120 seconds the server asked for.
	for _, d := range *slept {
		if d != 750*time.Millisecond {
			t.Fatalf("Retry-After sleep %v, want capped+jittered 750ms", d)
		}
	}
	if tr.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", tr.Retries())
	}
}

func TestClientHonorsModestRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Location", "/v1/campaigns/c000001")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":"c000001","state":"queued"}`)) //nolint:errcheck
	}))
	defer srv.Close()

	tr, slept := testTransport(time.Second)
	st, err := tr.Client(srv.URL).Submit(context.Background(), service.Submission{Program: "CP"})
	if err != nil {
		t.Fatalf("submit after pushback: %v", err)
	}
	if st.ID != "c000001" {
		t.Fatalf("status id %q", st.ID)
	}
	if len(*slept) != 1 || (*slept)[0] != 1500*time.Millisecond {
		t.Fatalf("slept %v, want one 1.5s sleep (2s hint, jitter 0)", *slept)
	}
}

func TestClientPermanent4xxDoesNotRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"no such campaign"}`, http.StatusNotFound)
	}))
	defer srv.Close()

	tr, _ := testTransport(time.Second)
	_, err := tr.Client(srv.URL).Wait(context.Background(), "c000099", 0)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 StatusError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx retried %d times; permanent failures must not retry", hits.Load())
	}
}

func TestClientList(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/campaigns" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"campaigns":[{"id":"c000001","state":"done"},{"id":"c000002","state":"queued"}]}`)) //nolint:errcheck
	}))
	defer srv.Close()

	tr, _ := testTransport(time.Second)
	list, err := tr.Client(srv.URL).List(context.Background())
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != 2 || list[0].ID != "c000001" || list[1].State != service.StateQueued {
		t.Fatalf("list = %+v", list)
	}
}

func TestClient5xxRetriesThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"draining":false,"running":1,"queued":0,"states":{}}`)) //nolint:errcheck
	}))
	defer srv.Close()

	tr, _ := testTransport(time.Second)
	ns, err := tr.Client(srv.URL).Node(context.Background())
	if err != nil {
		t.Fatalf("node after transient 5xx: %v", err)
	}
	if ns.Running != 1 || hits.Load() != 3 {
		t.Fatalf("running=%d after %d attempts, want 1 after 3", ns.Running, hits.Load())
	}
}

// TestClientChaosNetDrop: a planned netdrop fails the attempt before
// any bytes reach the wire; the retry envelope absorbs it.
func TestClientChaosNetDrop(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{"id":"c000001","state":"done"}`)) //nolint:errcheck
	}))
	defer srv.Close()

	plan, err := chaos.Parse("netdrop@0")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := testTransport(time.Second)
	tr.Chaos = plan
	st, err := tr.Client(srv.URL).Wait(context.Background(), "c000001", 0)
	if err != nil {
		t.Fatalf("status through netdrop: %v", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("state %s", st.State)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests; the dropped attempt must never reach the wire", hits.Load())
	}
}

// TestClientChaosNetStall: a planned netstall holds the attempt open
// for the full per-RPC deadline, then the retry succeeds.
func TestClientChaosNetStall(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"c000001","state":"done"}`)) //nolint:errcheck
	}))
	defer srv.Close()

	plan, err := chaos.Parse("netstall@0")
	if err != nil {
		t.Fatal(err)
	}
	tr, slept := testTransport(3 * time.Second)
	tr.Chaos = plan
	if _, err := tr.Client(srv.URL).Wait(context.Background(), "c000001", 0); err != nil {
		t.Fatalf("status through netstall: %v", err)
	}
	// The stall consumed exactly the per-RPC deadline (instant via the
	// sleep hook), then one backoff sleep preceded the retry.
	if len(*slept) != 2 || (*slept)[0] != 3*time.Second {
		t.Fatalf("slept %v, want [3s stall, backoff]", *slept)
	}
	if tr.Retries() != 1 {
		t.Fatalf("Retries() = %d, want 1", tr.Retries())
	}
}

func TestClientBaseNormalization(t *testing.T) {
	tr, _ := testTransport(time.Second)
	c := tr.Client("127.0.0.1:8345/")
	if c.Base != "http://127.0.0.1:8345" || c.Name != "127.0.0.1:8345" {
		t.Fatalf("normalized to base=%q name=%q", c.Base, c.Name)
	}
	c = tr.Client("https://node-a.example:9000")
	if c.Base != "https://node-a.example:9000" || c.Name != "node-a.example:9000" {
		t.Fatalf("normalized to base=%q name=%q", c.Base, c.Name)
	}
}

func TestClientErrorNamesNode(t *testing.T) {
	tr, _ := testTransport(100 * time.Millisecond)
	tr.MaxAttempts = 1
	// A loopback port whose listener was just closed refuses the
	// connection at once; the point is only that the error text carries
	// the node name so fleet logs identify the culprit.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = tr.Client(addr).Node(context.Background())
	if err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("err %v must name the node %s", err, addr)
	}
}

// TestClientWaitClampsToRPCDeadline: a status long-poll asks the node to
// park for at most half the per-RPC deadline, so a parked request always
// answers before the transport would count it as a failed attempt; a
// zero wait asks for none.
func TestClientWaitClampsToRPCDeadline(t *testing.T) {
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries = append(queries, r.URL.RawQuery)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"c000001","state":"done"}`)) //nolint:errcheck
	}))
	defer srv.Close()

	tr, _ := testTransport(2 * time.Second)
	cl := tr.Client(srv.URL)
	ctx := context.Background()
	for _, d := range []time.Duration{time.Minute, 300 * time.Millisecond} {
		if st, err := cl.Wait(ctx, "c000001", d); err != nil || st.State != service.StateDone {
			t.Fatalf("Wait(%s) = %+v, %v", d, st, err)
		}
	}
	if _, err := cl.Wait(ctx, "c000001", 0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"wait=1s", "wait=300ms", ""}; strings.Join(queries, "|") != strings.Join(want, "|") {
		t.Errorf("queries %q, want %q", queries, want)
	}
}

// Node fetches the daemon's own health document.
func (c *Client) Node(ctx context.Context) (service.NodeStatus, error) {
	var ns service.NodeStatus
	err := c.do(ctx, http.MethodGet, "/v1/node", nil, http.StatusOK, &ns)
	return ns, err
}

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"hauberk/internal/obs"
	"hauberk/internal/service"
)

// TestClientEventsOutlivesRPCTimeout: an event feed runs under the
// caller's context, not the per-RPC timeout — a feed slower than the
// timeout still arrives whole, and the context's deadline still ends it.
func TestClientEventsOutlivesRPCTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for seq := 1; seq <= 3; seq++ {
			fmt.Fprintf(w, "{\"seq\":%d,\"type\":\"campaign.progress\"}\n", seq)
			w.(http.Flusher).Flush()
			time.Sleep(60 * time.Millisecond)
		}
		if r.URL.Path == "/v1/campaigns/stuck/events" {
			<-r.Context().Done()
		}
	}))
	defer srv.Close()
	tr, _ := testTransport(50 * time.Millisecond)
	cl := tr.Client(srv.URL)

	var got []uint64
	err := cl.Events(context.Background(), "c000001", func(e Event) bool {
		got = append(got, e.Seq)
		return true
	})
	if err != nil || len(got) != 3 {
		t.Fatalf("feed slower than the RPC timeout: %v events, err %v", got, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	err = cl.Events(ctx, "stuck", func(Event) bool { return true })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("feed past its context deadline: %v, want DeadlineExceeded", err)
	}
}

// FuzzEventStream fuzzes the one event-feed reader and the read API's
// query parsing. The reader must deliver only typed events in strictly
// increasing sequence order, and read a feed the same whether it is
// NDJSON or SSE. Against a served campaign, a ?wait= or ?replay= value
// is a 400 exactly when it is not a non-negative duration or count, and
// a good one yields a feed the reader accepts.
func FuzzEventStream(f *testing.F) {
	f.Add([]byte("{\"seq\":1,\"type\":\"campaign.start\"}\n{\"seq\":2,\"type\":\"campaign.done\"}\n"), "5s", "1")
	f.Add([]byte("{\"seq\":2,\"type\":\"a\"}\n{\"seq\":1,\"type\":\"b\"}\n"), "0", "")
	f.Add([]byte("{\"seq\":1}\n"), "", "0")
	f.Add([]byte("not json\n"), "1ms", "x")
	f.Add(bytes.Repeat([]byte("x"), maxEventLine+1), "-5s", "-1")

	const served = 5
	m, err := service.ServeMonitor("127.0.0.1:0", service.Submission{Program: "CP"}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < served; i++ {
		m.Telemetry().Emit(obs.EvCampaignProgress, obs.Int("done", int64(i+1)))
	}
	m.Finish(service.StateDone, "", nil)
	m.Telemetry().Close() //nolint:errcheck // ends every feed after its replay
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck
	})
	tr := NewTransport(5 * time.Second)
	base := "http://" + m.Addr() + "/v1/campaigns/" + m.ID()

	f.Fuzz(func(t *testing.T, stream []byte, wait, replay string) {
		nd, ndErr := readAll(bytes.NewReader(stream))
		for i, e := range nd {
			if e.Type == "" || (i > 0 && e.Seq <= nd[i-1].Seq) {
				t.Fatalf("reader delivered %+v after %+v", e, nd[:i])
			}
		}
		// The SSE framing of the same lines (short enough to stay under
		// the line bound with their prefix) must read the same.
		if !bytes.Contains(stream, []byte("data: ")) && len(stream) < maxEventLine/2 {
			var sse bytes.Buffer
			for _, line := range bytes.Split(stream, []byte("\n")) {
				if len(line) > 0 {
					fmt.Fprintf(&sse, "data: %s\n\n", line)
				}
			}
			got, sseErr := readAll(&sse)
			if fmt.Sprint(got) != fmt.Sprint(nd) || (sseErr == nil) != (ndErr == nil) {
				t.Fatalf("SSE read %v (%v), NDJSON read %v (%v)", got, sseErr, nd, ndErr)
			}
		}

		resp, err := tr.HTTP.Get(base + "?" + url.Values{"wait": {wait}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		d, perr := time.ParseDuration(wait)
		if good := wait == "" || (perr == nil && d >= 0); good != (resp.StatusCode == http.StatusOK) {
			t.Fatalf("?wait=%q answered %d", wait, resp.StatusCode)
		}

		resp, err = tr.HTTP.Get(base + "/events?" + url.Values{"replay": {replay}, "format": {"sse"}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		n, perr := strconv.Atoi(replay)
		if good := replay == "" || (perr == nil && n >= 0); good != (resp.StatusCode == http.StatusOK) {
			t.Fatalf("?replay=%q answered %d", replay, resp.StatusCode)
		}
		if resp.StatusCode != http.StatusOK {
			return
		}
		got, err := readAll(resp.Body)
		if replay == "" || n > served {
			n = served
		}
		if err != nil || len(got) != n || (n > 0 && got[n-1].Seq != served) {
			t.Fatalf("?replay=%q fed %v, %v; want the last %d of %d events", replay, got, err, n, served)
		}
	})
}

// readAll drains a feed through readEvents.
func readAll(r io.Reader) ([]Event, error) {
	var got []Event
	err := readEvents(r, func(e Event) bool {
		got = append(got, e)
		return true
	})
	return got, err
}

// TestReadEventsRejects pins the reader's error for each malformed-feed
// seed of FuzzEventStream.
func TestReadEventsRejects(t *testing.T) {
	for feed, want := range map[string]string{
		"{\"seq\":2,\"type\":\"a\"}\n{\"seq\":1,\"type\":\"b\"}\n": "sequence regressed: 1 after 2",
		"{\"seq\":1}\n":                "has no type",
		"data: not json\n\n":           "not a JSON event",
		strings.Repeat("x", 70<<10):    "token too long",
		"{\"seq\":1,\"type\":\"a\"}\n": "",
	} {
		_, err := readAll(strings.NewReader(feed))
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("feed %.40q: err %v, want %q", feed, err, want)
		}
	}
}

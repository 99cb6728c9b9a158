package service

import (
	"context"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hauberk/internal/obs"
)

// startMonitor serves one campaign the way `hauberk-run -http` does.
func startMonitor(t *testing.T) *Monitor {
	t.Helper()
	m, err := ServeMonitor("127.0.0.1:0", Submission{Program: "CP", Scale: "quick"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)       //nolint:errcheck
		m.Telemetry().Close() //nolint:errcheck
	})
	return m
}

func TestMonitorCampaignAndReadiness(t *testing.T) {
	m := startMonitor(t)
	base := "http://" + m.Addr()
	tel := m.Telemetry()

	if code := getCode(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	// Before any telemetry the monitor is alive but not ready.
	if code := getCode(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before events: %d, want 503", code)
	}
	tel.Emit(obs.EvCampaignStart,
		obs.Str("program", "CP"), obs.Int("injections", 4), obs.Int("shard", 0), obs.Int("shards", 1))
	tel.Emit(obs.EvCampaignProgress,
		obs.Str("program", "CP"), obs.Int("done", 1), obs.Int("total", 4),
		obs.Int("shard", 0), obs.Int("shards", 1), obs.Str("outcome", "masked"))
	if code := getCode(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after events: %d, want 200", code)
	}

	code, st, _ := getStatus(t, base, m.ID(), "")
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.ID != m.ID() || st.Program != "CP" || st.State != StateRunning || st.StartedAt.IsZero() {
		t.Fatalf("status: %+v", st)
	}
	if p := st.Progress; p.State != "running" || p.Completed != 1 || p.Total != 4 || p.Outcomes["masked"] != 1 {
		t.Fatalf("progress: %+v", p)
	}
	if code, _, _ := getStatus(t, base, "c000001", ""); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}
	// A long-poll on the running campaign answers when its wait elapses.
	if _, st, _ := getStatus(t, base, m.ID(), "?wait=20ms"); st.State != StateRunning {
		t.Fatalf("expired long-poll: %s, want running", st.State)
	}

	// Finish releases a parked long-poll with the terminal status.
	parked := make(chan Status, 1)
	go func() {
		_, st, _ := getStatus(t, base, m.ID(), "?wait=1m")
		parked <- st
	}()
	time.Sleep(50 * time.Millisecond) // let the request park
	m.Finish(StateDone, "digest\n", nil)
	select {
	case st := <-parked:
		if st.State != StateDone || st.Digest != "digest\n" || st.FinishedAt.IsZero() {
			t.Fatalf("settled long-poll: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish did not release the parked long-poll")
	}
}

// TestMonitorShutdownReleasesLongPoll pins that an interrupted run's
// monitor never waits out a parked ?wait= request.
func TestMonitorShutdownReleasesLongPoll(t *testing.T) {
	m := startMonitor(t)
	parked := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + m.Addr() + "/v1/campaigns/" + m.ID() + "?wait=1m")
		if err == nil {
			resp.Body.Close()
		}
		parked <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request park
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked long-poll: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %s with a parked long-poll", d)
	}
}

// readmeRoutes parses README.md's endpoint table into the routes each
// binary is documented to mount.
func readmeRoutes(t *testing.T) (daemon, monitor []string) {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	route := regexp.MustCompile("`([^`]+)`")
	in := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "| Route | hauberkd | `hauberk-run -http` |") {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("README endpoint row %q: want route, hauberkd, hauberk-run, semantics", line)
		}
		for _, m := range route.FindAllStringSubmatch(cells[1], -1) {
			if strings.TrimSpace(cells[2]) != "" {
				daemon = append(daemon, m[1])
			}
			if strings.TrimSpace(cells[3]) != "" {
				monitor = append(monitor, m[1])
			}
		}
	}
	if len(daemon) == 0 {
		t.Fatal("README.md has no endpoint table")
	}
	return daemon, monitor
}

// TestReadmeEndpointCatalog keeps README's one endpoint table honest:
// every route either binary mounts is listed under it, and nothing else.
// Both binaries' GET /v1/campaigns/{id} must serve exactly Status.
func TestReadmeEndpointCatalog(t *testing.T) {
	d := startDaemon(t, t.TempDir(), 1, 4)
	m := startMonitor(t)
	docDaemon, docMonitor := readmeRoutes(t)
	for _, c := range []struct {
		name       string
		doc, mount []string
	}{
		{"hauberkd", docDaemon, d.http.Routes()},
		{"hauberk-run -http", docMonitor, m.srv.Routes()},
	} {
		slices.Sort(c.doc)
		slices.Sort(c.mount)
		if !slices.Equal(c.doc, c.mount) {
			t.Errorf("%s: README lists %q\nbut the server mounts %q", c.name, c.doc, c.mount)
		}
	}

	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	for base, id := range map[string]string{"http://" + d.Addr(): c.ID, "http://" + m.Addr(): m.ID()} {
		if code, _, _ := getStatus(t, base, id, ""); code != http.StatusOK {
			t.Errorf("GET %s/v1/campaigns/%s: %d", base, id, code)
		}
	}
}

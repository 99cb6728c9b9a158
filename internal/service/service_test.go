package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hauberk/internal/harness"
	"hauberk/internal/harness/store"
	"hauberk/internal/workloads"
)

// startDaemon builds and starts a daemon over a fresh (or reused)
// store, registering a cleanup shutdown.
func startDaemon(t *testing.T, storeRoot string, slots, queueDepth int) *Daemon {
	t.Helper()
	d, err := NewDaemon(Config{
		Addr:       "127.0.0.1:0",
		StoreRoot:  storeRoot,
		Slots:      slots,
		QueueDepth: queueDepth,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx) //nolint:errcheck // best-effort cleanup
	})
	return d
}

// awaitState polls a campaign until pred holds or the deadline passes.
func awaitState(t *testing.T, c *Campaign, want func(State) bool, what string) State {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := c.State()
		if want(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s waiting for %s", c.ID, st, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// referenceDigest runs the same plan through the harness directly (the
// hauberk-run code path: PrepareCampaign → RunPrepared → LoadCampaignDir)
// and returns its figure digest.
func referenceDigest(t *testing.T, program, scaleName string, dataset int) string {
	t.Helper()
	scale, ok := harness.ScaleByName(scaleName)
	if !ok {
		t.Fatalf("unknown scale %q", scaleName)
	}
	env := harness.NewEnv(scale)
	pc, err := env.PrepareCampaign(workloads.ByName(program), workloads.Dataset{Index: dataset})
	if err != nil {
		t.Fatalf("prepare reference: %v", err)
	}
	dir := t.TempDir()
	if _, err := env.RunPrepared(context.Background(), pc, harness.CampaignOptions{Dir: dir}); err != nil {
		t.Fatalf("run reference: %v", err)
	}
	_, merged, err := harness.LoadCampaignDir(dir)
	if err != nil {
		t.Fatalf("load reference: %v", err)
	}
	return merged.FigureDigest()
}

// TestDaemonDigestMatchesDirectRun is the service's correctness
// contract: a campaign submitted through the daemon produces a figure
// digest byte-identical to running the same plan directly through the
// harness (which is what `hauberk-run -campaign-dir` does).
func TestDaemonDigestMatchesDirectRun(t *testing.T) {
	d := startDaemon(t, t.TempDir(), 2, 16)
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitState(t, c, State.Terminal, "completion")
	st := c.Status()
	if st.State != StateDone {
		t.Fatalf("campaign finished %s (error %q), want done", st.State, st.Error)
	}
	want := referenceDigest(t, "CP", "tiny", 0)
	if st.Digest != want {
		t.Fatalf("daemon digest diverged from direct run:\ndaemon:\n%s\ndirect:\n%s", st.Digest, want)
	}
	// The campaign has no directory: its lifecycle and its injection store
	// are lines of the daemon's one journal.
	if got := dirNames(t, d.cfg.StoreRoot); strings.Join(got, " ") != journalFile {
		t.Errorf("store root holds %v, want only %s", got, journalFile)
	}
}

// dirNames lists a directory's entries by name, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names
}

// TestDaemonRestartResumeDigest interrupts a campaign mid-run via
// graceful shutdown, restarts the daemon over the same store, and
// checks the resumed campaign's digest is byte-identical to an
// uninterrupted run — the durable-store checkpoint loses nothing and
// duplicates nothing.
func TestDaemonRestartResumeDigest(t *testing.T) {
	storeRoot := t.TempDir()
	d, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: storeRoot, Slots: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	progressed := make(chan struct{})
	var once sync.Once
	SetTestOptsHook(func(c *Campaign, opts *harness.CampaignOptions) {
		opts.OnResult = func(done, total int) {
			if done >= 3 {
				once.Do(func() { close(progressed) })
				// Pin the campaign here until drain cancels the running
				// contexts: the interruption point is exactly done=3, no
				// wall-clock race against campaign completion.
				<-d.baseCtx.Done()
			}
		}
	})
	defer SetTestOptsHook(nil)

	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	c, err := d.Submit(Submission{Program: "CP", Scale: "quick"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-progressed:
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign made no progress")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	if st := c.State(); st != StateInterrupted {
		t.Fatalf("after drain campaign is %s, want interrupted", st)
	}
	SetTestOptsHook(nil)

	d2 := startDaemon(t, storeRoot, 1, 16)
	c2, err := d2.Get(c.ID)
	if err != nil {
		t.Fatalf("campaign %s lost across restart: %v", c.ID, err)
	}
	awaitState(t, c2, State.Terminal, "resumed completion")
	st := c2.Status()
	if st.State != StateDone {
		t.Fatalf("resumed campaign finished %s (error %q), want done", st.State, st.Error)
	}
	want := referenceDigest(t, "CP", "quick", 0)
	if st.Digest != want {
		t.Fatalf("resumed digest diverged from uninterrupted run:\nresumed:\n%s\ndirect:\n%s", st.Digest, want)
	}
}

// TestDaemonCancelQueuedVsRunning covers both cancellation paths: a
// queued campaign is dequeued without ever running; a running campaign
// is interrupted and lands in canceled (not resumable-interrupted).
func TestDaemonCancelQueuedVsRunning(t *testing.T) {
	running := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	SetTestOptsHook(func(c *Campaign, opts *harness.CampaignOptions) {
		if c.ScaleName != "quick" {
			return
		}
		opts.OnResult = func(done, total int) {
			once.Do(func() { close(running) })
			// Pin the first campaign mid-run so the second stays queued
			// and cancel-while-running hits a genuinely running campaign.
			<-resume
		}
	})
	defer SetTestOptsHook(nil)

	d := startDaemon(t, t.TempDir(), 1, 16)
	first, err := d.Submit(Submission{Program: "CP", Scale: "quick"})
	if err != nil {
		t.Fatalf("submit first: %v", err)
	}
	queued, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatalf("submit second: %v", err)
	}

	// Cancel the queued one: slots=1 and the first campaign holds the
	// slot (it has produced a result and is pinned mid-run), so the
	// second is still in the scheduler's queue.
	select {
	case <-running:
	case <-time.After(2 * time.Minute):
		t.Fatal("first campaign never started producing results")
	}
	st, err := d.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued campaign canceled to %s, want canceled", st.State)
	}
	if !st.StartedAt.IsZero() {
		t.Errorf("queued campaign has a start time %v; it must never have run", st.StartedAt)
	}

	// Cancel the running one: it must interrupt and classify as
	// canceled, not interrupted (canceled campaigns do not resume).
	// Cancel first (marks the flag and cancels the run context), then
	// release the pinned worker so the interrupt is observed.
	if _, err := d.Cancel(first.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	close(resume)
	awaitState(t, first, State.Terminal, "cancellation")
	if got := first.State(); got != StateCanceled {
		t.Fatalf("running campaign canceled to %s, want canceled", got)
	}

	// Cancel of a terminal campaign is a no-op echo of its status.
	st, err = d.Cancel(first.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("re-cancel terminal: %v %s", err, st.State)
	}
}

// TestDaemonHTTPAdmission exercises the HTTP plane end to end: 201 on
// accept, 429 + Retry-After once the tenant queue is full, 404 on
// unknown ids, and list/status/cancel round-trips.
func TestDaemonHTTPAdmission(t *testing.T) {
	blocked := make(chan struct{})
	SetTestOptsHook(func(c *Campaign, opts *harness.CampaignOptions) {
		opts.OnResult = func(done, total int) { <-blocked } // pin the slot
	})
	defer SetTestOptsHook(nil)

	d := startDaemon(t, t.TempDir(), 1, 1)
	// Registered after startDaemon so it runs before the daemon's
	// shutdown cleanup: the pinned campaign must unblock for the drain
	// to complete promptly.
	t.Cleanup(func() { close(blocked) })
	base := "http://" + d.Addr()

	post := func() (*http.Response, []byte) {
		body, _ := json.Marshal(Submission{Program: "CP", Scale: "tiny"})
		resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		return resp, raw
	}

	// First submission occupies the single slot (its exec pins on the
	// hook), second fills the depth-1 queue, third must get a 429.
	resp1, raw1 := post()
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, raw1)
	}
	var st Status
	if err := json.Unmarshal(raw1, &st); err != nil {
		t.Fatalf("first POST body: %v", err)
	}
	if loc := resp1.Header.Get("Location"); loc != "/v1/campaigns/"+st.ID {
		t.Errorf("Location = %q, want /v1/campaigns/%s", loc, st.ID)
	}

	deadline := time.Now().Add(time.Minute)
	var resp3 *http.Response
	for {
		resp, raw := post()
		if resp.StatusCode == http.StatusTooManyRequests {
			resp3 = resp
			break
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST: %d %s", resp.StatusCode, raw)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled to a 429")
		}
	}
	if ra, err := strconv.Atoi(resp3.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want a positive integer", resp3.Header.Get("Retry-After"))
	}

	// Unknown id → 404 with a JSON error body.
	resp, err := http.Get(base + "/v1/campaigns/c999999")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown id: %d, want 404", resp.StatusCode)
	}

	// List shows everything admitted so far.
	resp, err = http.Get(base + "/v1/campaigns")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	var list struct {
		Campaigns []Status `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if len(list.Campaigns) != 2 {
		t.Errorf("list has %d campaigns, want 2 (one running, one queued)", len(list.Campaigns))
	}

	// DELETE the queued campaign over HTTP.
	queuedID := ""
	for _, s := range list.Campaigns {
		if s.State == StateQueued {
			queuedID = s.ID
		}
	}
	if queuedID == "" {
		t.Fatal("no queued campaign in list")
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/campaigns/"+queuedID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var canceled Status
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatalf("decode DELETE body: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if canceled.State != StateCanceled {
		t.Errorf("DELETE left campaign %s, want canceled", canceled.State)
	}
}

// TestDaemonEventsAndMetrics checks the observability plane: the
// per-campaign /events feed streams NDJSON journal events for that
// campaign, and /metrics exposes the per-tenant scheduler series.
func TestDaemonEventsAndMetrics(t *testing.T) {
	d := startDaemon(t, t.TempDir(), 1, 16)
	base := "http://" + d.Addr()
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny", Tenant: "acme"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitState(t, c, State.Terminal, "completion")

	resp, err := http.Get(base + "/v1/campaigns/" + c.ID + "/events?replay=5")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q, want application/x-ndjson", ct)
	}
	// The campaign is done, so replayed history is immediately
	// available; read a few lines then hang up.
	buf := make([]byte, 1)
	got := 0
	for got < 2 {
		n, err := resp.Body.Read(buf)
		if err != nil {
			t.Fatalf("events stream ended after %d newlines: %v", got, err)
		}
		if n == 1 && buf[0] == '\n' {
			got++
		}
	}
	resp.Body.Close() //nolint:errcheck

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	for _, want := range []string{
		`hauberkd_dispatches_total{tenant="acme"}`,
		`hauberkd_campaign_outcomes_total{tenant="acme",state="done"}`,
		"hauberkd_queue_latency_ms",
		"hauberk_build_info",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// readyz flips to 503 once draining.
	if code := getCode(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz before drain: %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	return resp.StatusCode
}

// TestSubmissionValidation rejects unknown programs, scales and
// isolation modes before anything is queued or persisted.
func TestSubmissionValidation(t *testing.T) {
	d := startDaemon(t, t.TempDir(), 1, 4)
	for _, sub := range []Submission{
		{Program: "no-such-program", Scale: "tiny"},
		{Program: "CP", Scale: "gigantic"},
		{Program: "CP", Scale: "tiny", Isolation: "vm"},
	} {
		if _, err := d.Submit(sub); err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", sub)
		}
	}
	if got := len(d.List()); got != 0 {
		t.Errorf("invalid submissions left %d campaign records", got)
	}
}

// TestSubmitRejectsOutOfRangeDataset: a dataset index the program does not
// define is a 400 over HTTP that changes nothing in the store root, writes
// no journal line and does not count as a submission; the last valid index
// is still accepted.
func TestSubmitRejectsOutOfRangeDataset(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, root, 1, 4)
	base := "http://" + d.Addr()
	post := func(dataset int) int {
		t.Helper()
		body, _ := json.Marshal(Submission{Program: "CP", Scale: "tiny", Dataset: dataset})
		resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		return resp.StatusCode
	}
	submissions := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET metrics: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "hauberkd_submissions_total") {
				return line
			}
		}
		return ""
	}
	entries := func() string {
		t.Helper()
		journal, err := os.ReadFile(filepath.Join(root, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(dirNames(t, root), " ") + "\n" + string(journal)
	}

	last := workloads.ByName("CP").NumDatasets - 1
	if code := post(last); code != http.StatusCreated {
		t.Fatalf("dataset %d: %d, want 201", last, code)
	}
	// The accepted campaign journals its store when it runs and its state
	// when it settles; wait for both before taking the reference.
	for _, st := range d.List() {
		c, _ := d.Get(st.ID)
		awaitState(t, c, State.Terminal, "completion")
	}
	wantSubs, wantEntries := submissions(), entries()
	if wantSubs == "" {
		t.Fatal("accepted submission not counted in hauberkd_submissions_total")
	}
	for _, ds := range []int{-7, last + 1, 1 << 30} {
		if code := post(ds); code != http.StatusBadRequest {
			t.Errorf("dataset %d: %d, want 400", ds, code)
		}
	}
	if got := submissions(); got != wantSubs {
		t.Errorf("rejected datasets moved the submission counter: %q -> %q", wantSubs, got)
	}
	if got := entries(); got != wantEntries {
		t.Errorf("rejected datasets changed the store root and journal:\n%s\nwant:\n%s", got, wantEntries)
	}
	if got := len(d.List()); got != 1 {
		t.Errorf("daemon holds %d campaigns, want the one accepted", got)
	}
}

// TestJournalRoundTrip: journal lines replay to the campaign table, the
// last line for an ID winning; a torn line is skipped, final or not,
// leaving its campaign in the previous state, and a malformed interior
// line that ends in '}' is an error.
func TestJournalRoundTrip(t *testing.T) {
	root := t.TempDir()
	j, err := openJournal(root, nil, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	c := newCampaign("c000042", Submission{
		Tenant: "acme", Program: "SAD", Scale: "quick", Dataset: 1,
		Isolation: "process", Shard: 2, Shards: 3,
	}, nil, nil)
	other := newCampaign("c000007", Submission{Tenant: "default", Program: "CP", Scale: "tiny"}, nil, nil)
	write := func(c *Campaign) {
		t.Helper()
		if err := appendMeta(j, c); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	write(c)
	c.mu.Lock()
	c.state, c.digest = StateInterrupted, "partial"
	c.mu.Unlock()
	write(c)
	write(other)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := appendMeta(j, c); err == nil {
		t.Error("append after close succeeded")
	}
	path := filepath.Join(root, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"c000042","tenant":"acme","program":"SAD","sta`) //nolint:errcheck
	f.Close()                                                             //nolint:errcheck

	ms, _, err := readJournal(root)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(ms) != 2 || ms[0].ID != "c000007" || ms[1].ID != "c000042" {
		t.Fatalf("replayed %+v, want c000007 and c000042 in ID order", ms)
	}
	m := ms[1]
	if m.Tenant != "acme" || m.Program != "SAD" || m.Scale != "quick" || m.Dataset != 1 ||
		m.Isolation != "process" || m.Shard != 2 || m.Shards != 3 ||
		m.State != StateInterrupted || m.Digest != "partial" {
		t.Fatalf("round-trip mismatch: %+v", m)
	}
	r := restoreCampaign(m, nil)
	if r.State() != StateInterrupted || r.ID != c.ID {
		t.Fatalf("restore mismatch: %s %s", r.ID, r.State())
	}
	if r.Shard != 2 || r.Shards != 3 {
		t.Fatalf("restore lost the shard scope: %d/%d", r.Shard, r.Shards)
	}

	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(raw, "\n{\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if ms, _, err := readJournal(root); err != nil || len(ms) != 2 || ms[1].State != StateInterrupted {
		t.Fatalf("readJournal over two torn interior lines: %+v, %v; want them skipped", ms, err)
	}
	if err := os.WriteFile(path, append(raw, "\n{\"id\":}\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readJournal(root); err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("readJournal over a malformed interior line: %v, want an error naming line 5", err)
	}
}

// TestNewDaemonRefusesLegacyStoreRoot: a store root holding the campaign
// directories of an older daemon — the per-campaign submission.json of a
// daemon from before the journal, or the journal plus a manifest and shard
// log per campaign — is refused, naming the directory, rather than opened
// without them, and is left as it was, so the older binary can still
// drain it.
func TestNewDaemonRefusesLegacyStoreRoot(t *testing.T) {
	for name, files := range map[string]map[string]string{
		"pre-journal": {
			"c000001/submission.json": `{"id":"c000001","state":"queued"}`,
		},
		"directory-per-campaign": {
			journalFile:                `{"id":"c000001","tenant":"default","program":"CP","scale":"tiny","dataset":0,"state":"interrupted","submitted_at":"2026-01-02T03:04:05Z"}` + "\n",
			"c000001/manifest.json":    `{"program":"CP","mode":3,"injections":4,"plan_hash":"00000000000000ab"}`,
			"c000001/shard-0of1.jsonl": `{"idx":0,"id":"k0","outcome":1,"bits":1,"class":0}` + "\n",
		},
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			for f, content := range files {
				path := filepath.Join(root, f)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: root, Logf: t.Logf})
			if err == nil || !strings.Contains(err.Error(), root) || !strings.Contains(err.Error(), "move the directory aside") {
				t.Fatalf("NewDaemon over an older daemon's store root: %v, want a refusal naming %s", err, root)
			}
			journal, err := os.ReadFile(filepath.Join(root, journalFile))
			if want, ok := files[journalFile]; string(journal) != want || (err == nil) != ok {
				t.Errorf("refused store root's journal changed: %q (%v), want %q", journal, err, want)
			}
		})
	}
}

// TestDaemonRestartRequeuesTornTerminalLine: a daemon killed while writing
// a campaign's done line leaves that line torn. The restart skips it, so
// the campaign is requeued from its submit line, resumes from its complete
// store, and reaches the uninterrupted digest again.
func TestDaemonRestartRequeuesTornTerminalLine(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, root, 1, 4)
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitState(t, c, State.Terminal, "completion")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	path := filepath.Join(root, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("journal ends %q, want the done line", last)
	}
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, root, 1, 4)
	c2, err := d2.Get(c.ID)
	if err != nil {
		t.Fatalf("campaign %s lost across restart: %v", c.ID, err)
	}
	awaitState(t, c2, State.Terminal, "resumed completion")
	st := c2.Status()
	if st.State != StateDone {
		t.Fatalf("requeued campaign finished %s (error %q), want done", st.State, st.Error)
	}
	if want := referenceDigest(t, "CP", "tiny", 0); st.Digest != want {
		t.Fatalf("requeued digest diverged from the direct run:\nrequeued:\n%s\ndirect:\n%s", st.Digest, want)
	}
}

// TestDaemonRestartKeepsTerminalCampaigns: concurrent tiny submissions
// race their submit line against their own settled line. After a restart
// no terminal campaign may be requeued (it would run again), and the
// compacted journal holds one meta line per campaign, each followed by
// that campaign's store.
func TestDaemonRestartKeepsTerminalCampaigns(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, root, 2, 64)
	const n = 24
	var wg sync.WaitGroup
	cs := make([]*Campaign, n)
	for i := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := d.Submit(Submission{Program: "RPES", Scale: "tiny", Tenant: "t" + strconv.Itoa(i%4)})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			cs[i] = c
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := make(map[string]Status, n)
	for _, c := range cs {
		awaitState(t, c, State.Terminal, "completion")
		want[c.ID] = c.Status()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	d2, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: root, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d2.journal.Close() //nolint:errcheck // never started, so no Shutdown
	got := d2.List()
	if len(got) != n {
		t.Fatalf("restart recovered %d campaigns, want %d", len(got), n)
	}
	for _, st := range got {
		w := want[st.ID]
		if st.State != w.State || !st.State.Terminal() || st.Digest != w.Digest {
			t.Errorf("%s recovered as %s (digest %q), want terminal %s (digest %q)", st.ID, st.State, st.Digest, w.State, w.Digest)
		}
	}
	raw, err := os.ReadFile(filepath.Join(root, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var metas []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "{") {
			metas = append(metas, line)
			continue
		}
		tag, _, _ := strings.Cut(line, "\t")
		if len(metas) == 0 || !strings.Contains(metas[len(metas)-1], `"id":"`+tag+`"`) {
			t.Fatalf("compacted journal line %q does not follow its campaign's meta line", line)
		}
	}
	if len(metas) != n {
		t.Errorf("compacted journal holds %d meta lines, want %d", len(metas), n)
	}
}

// TestThousandCampaignsOneEntry: however many campaigns a daemon runs,
// its store root holds the journal alone — before and after a restart
// compacts it.
func TestThousandCampaignsOneEntry(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, root, 2, 1000)
	const n = 1000
	cs := make([]*Campaign, n)
	for i := range cs {
		c, err := d.Submit(Submission{Program: "RPES", Scale: "tiny"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		cs[i] = c
	}
	for _, c := range cs {
		if st := awaitState(t, c, State.Terminal, "completion"); st != StateDone {
			t.Fatalf("%s finished %s", c.ID, st)
		}
	}
	if got := dirNames(t, root); strings.Join(got, " ") != journalFile {
		t.Fatalf("after %d campaigns the store root holds %v, want only %s", n, got, journalFile)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d2, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: root, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d2.journal.Close() //nolint:errcheck // never started, so no Shutdown
	if got := len(d2.List()); got != n {
		t.Errorf("restart recovered %d campaigns, want %d", got, n)
	}
	if got := dirNames(t, root); strings.Join(got, " ") != journalFile {
		t.Errorf("after the restart the store root holds %v, want only %s", got, journalFile)
	}
}

// TestStoreSnapshotSurvivesRestart: a shard campaign's snapshot — what the
// fleet coordinator fetches — is the same before and after a restart
// compacts the journal, and holds the records a `hauberk-run -campaign-dir`
// run of the same shard writes to its store directory.
func TestStoreSnapshotSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, root, 1, 4)
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny", Shard: 1, Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := awaitState(t, c, State.Terminal, "completion"); st != StateDone {
		t.Fatalf("shard campaign finished %s", st)
	}
	before := snapshotJSON(t, d, c.ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d2, err := NewDaemon(Config{Addr: "127.0.0.1:0", StoreRoot: root, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d2.journal.Close() //nolint:errcheck // never started, so no Shutdown
	if after := snapshotJSON(t, d2, c.ID); after != before {
		t.Fatalf("snapshot changed across a restart:\n%s\nthen\n%s", before, after)
	}

	snap, err := d2.StoreSnapshot(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	env := harness.NewEnv(harness.TinyScale())
	pc, err := env.PrepareCampaign(workloads.ByName("CP"), workloads.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := env.RunPrepared(context.Background(), pc, harness.CampaignOptions{Dir: dir, Shard: 1, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.ReadLog(dir, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := l.Snapshot(store.ShardTag(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Files[store.ShardTag(1, 2)]
	if len(snap.Files) != 1 || !ok {
		t.Fatalf("snapshot files %v, want shard-1of2 alone", snap.Files)
	}
	if sortedLines(got) != sortedLines(string(want)) {
		t.Fatalf("snapshot shard log differs from hauberk-run's:\n%s\nwant (any order):\n%s", got, want)
	}
	if man := env.CampaignManifest(pc.Spec, pc.Mode, pc.Plan); !snap.Manifest.Equal(man) {
		t.Fatalf("snapshot manifest %+v, want %+v", snap.Manifest, man)
	}
}

// snapshotJSON is a campaign's store snapshot in its wire form.
func snapshotJSON(t *testing.T, d *Daemon, id string) string {
	t.Helper()
	snap, err := d.StoreSnapshot(id)
	if err != nil {
		t.Fatalf("snapshot %s: %v", id, err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sortedLines is s's lines in sorted order.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestDaemonRestartRerunsTornRecord: a daemon killed while writing a
// record line leaves it torn at the journal's end. The restart drops the
// torn line, resumes the campaign from the records before it, re-runs
// exactly that injection — its record line comes back byte for byte — and
// reaches the uninterrupted digest.
func TestDaemonRestartRerunsTornRecord(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, root, 1, 4)
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitState(t, c, State.Terminal, "completion")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	path := filepath.Join(root, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	k := len(lines) - 1
	for k >= 0 && !strings.HasPrefix(lines[k], c.ID+"\t{") {
		k--
	}
	if k < 0 {
		t.Fatalf("journal holds no record line of %s:\n%s", c.ID, raw)
	}
	// The kill came halfway through the last record line: nothing after
	// it, the done line included, was written.
	torn := lines[k]
	if err := os.WriteFile(path, []byte(strings.Join(lines[:k], "")+torn[:len(torn)/2]), 0o644); err != nil {
		t.Fatal(err)
	}

	var reruns atomic.Int64
	SetTestOptsHook(func(_ *Campaign, opts *harness.CampaignOptions) {
		opts.OnResult = func(int, int) { reruns.Add(1) }
	})
	defer SetTestOptsHook(nil)
	d2 := startDaemon(t, root, 1, 4)
	c2, err := d2.Get(c.ID)
	if err != nil {
		t.Fatalf("campaign %s lost across restart: %v", c.ID, err)
	}
	awaitState(t, c2, State.Terminal, "resumed completion")
	st := c2.Status()
	if st.State != StateDone {
		t.Fatalf("resumed campaign finished %s (error %q), want done", st.State, st.Error)
	}
	if n := reruns.Load(); n != 1 {
		t.Errorf("resume ran %d injections, want the torn one alone", n)
	}
	if want := referenceDigest(t, "CP", "tiny", 0); st.Digest != want {
		t.Fatalf("resumed digest diverged from the direct run:\nresumed:\n%s\ndirect:\n%s", st.Digest, want)
	}
	_, snap, err := d2.journal.Snapshot(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimPrefix(torn, c.ID+"\t"); !strings.HasSuffix(string(snap), "\n"+want) {
		t.Errorf("the re-run record is not the torn one %q:\n%s", want, snap)
	}
}

// getStatus GETs one campaign's status with the given query and reports
// the HTTP code, the decoded status and how long the answer took. The
// decode is strict: both binaries must serve exactly Status.
func getStatus(t *testing.T, base, id, query string) (int, Status, time.Duration) {
	t.Helper()
	t0 := time.Now()
	resp, err := http.Get(base + "/v1/campaigns/" + id + query)
	if err != nil {
		t.Errorf("GET status%s: %v", query, err)
		return 0, Status{}, 0
	}
	defer resp.Body.Close() //nolint:errcheck
	var st Status
	if resp.StatusCode == http.StatusOK {
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&st); err != nil {
			t.Errorf("decode status%s: %v", query, err)
		}
	}
	return resp.StatusCode, st, time.Since(t0)
}

// TestStatusLongPoll: GET /v1/campaigns/{id}?wait= answers the moment the
// campaign settles, or with the campaign still running once the wait
// elapses; a malformed wait is a 400. Each parked request is counted by
// how it ended.
func TestStatusLongPoll(t *testing.T) {
	release := make(chan struct{})
	SetTestOptsHook(func(c *Campaign, opts *harness.CampaignOptions) {
		opts.OnResult = func(done, total int) { <-release } // pin mid-run
	})
	defer SetTestOptsHook(nil)
	d := startDaemon(t, t.TempDir(), 1, 4)
	base := "http://" + d.Addr()
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitState(t, c, func(s State) bool { return s == StateRunning }, "running")

	if code, st, took := getStatus(t, base, c.ID, "?wait=100ms"); code != http.StatusOK ||
		st.State != StateRunning || took < 100*time.Millisecond {
		t.Errorf("wait on a pinned campaign: %d %s after %s, want 200 running after >= 100ms", code, st.State, took)
	}
	for _, q := range []string{"?wait=soon", "?wait=-1s"} {
		if code, _, _ := getStatus(t, base, c.ID, q); code != http.StatusBadRequest {
			t.Errorf("GET status%s: %d, want 400", q, code)
		}
	}

	type answer struct {
		code int
		st   Status
		took time.Duration
	}
	parked := make(chan answer, 1)
	go func() {
		code, st, took := getStatus(t, base, c.ID, "?wait=1m")
		parked <- answer{code, st, took}
	}()
	time.Sleep(50 * time.Millisecond) // let the request park before the campaign can finish
	close(release)
	a := <-parked
	if a.code != http.StatusOK || a.st.State != StateDone || a.st.Digest == "" || a.took >= 30*time.Second {
		t.Errorf("parked wait: %d %s (digest %q) after %s, want 200 done with its digest well before the 1m bound",
			a.code, a.st.State, a.st.Digest, a.took)
	}
	// A settled campaign answers a wait at once.
	if code, st, took := getStatus(t, base, c.ID, "?wait=1m"); code != http.StatusOK ||
		st.State != StateDone || took >= 30*time.Second {
		t.Errorf("wait on a done campaign: %d %s after %s, want 200 done at once", code, st.State, took)
	}
	for result, want := range map[string]int64{waitExpired: 1, waitSettled: 2} {
		if got := d.reg.Counter("hauberkd_status_waits_total", "result", result).Value(); got != want {
			t.Errorf("hauberkd_status_waits_total{result=%q} = %d, want %d", result, got, want)
		}
	}
}

// TestStatusLongPollReleasedByDrain: a status request parked on a running
// campaign answers as soon as the daemon starts draining, even when the
// campaign outlives the drain window, so a long-poll never holds Shutdown
// for its whole wait.
func TestStatusLongPollReleasedByDrain(t *testing.T) {
	d, err := NewDaemon(Config{
		Addr: "127.0.0.1:0", StoreRoot: t.TempDir(), Slots: 1,
		DrainTimeout: 100 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	release := make(chan struct{})
	SetTestOptsHook(func(c *Campaign, opts *harness.CampaignOptions) {
		opts.OnResult = func(done, total int) { <-release } // pin past the drain window
	})
	defer SetTestOptsHook(nil)
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	c, err := d.Submit(Submission{Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitState(t, c, func(s State) bool { return s == StateRunning }, "running")

	parked := make(chan int, 1)
	go func() {
		code, _, _ := getStatus(t, "http://"+d.Addr(), c.ID, "?wait=1m")
		parked <- code
	}()
	time.Sleep(50 * time.Millisecond) // let the request park
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a status request parked: %v", err)
	}
	if code := <-parked; code != http.StatusOK {
		t.Errorf("parked wait answered %d across the drain, want 200", code)
	}
	if took := time.Since(t0); took >= 10*time.Second {
		t.Errorf("drain took %s with a status request parked, want it released at once", took)
	}
	// Unpin, and let the executor checkpoint before the store is removed.
	close(release)
	if err := d.sched.AwaitIdle(ctx); err != nil {
		t.Errorf("executor never exited after the unpin: %v", err)
	}
}

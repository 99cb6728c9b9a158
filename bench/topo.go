package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hauberk/internal/fleet"
	"hauberk/internal/harness"
	"hauberk/internal/obs"
	"hauberk/internal/service"
	"hauberk/internal/workloads"
)

// plan names one campaign the benchmark drives: a program at a named
// scale on one dataset. The programs under test see only these.
type plan struct {
	spec  *workloads.Spec
	scale string
	ds    workloads.Dataset
}

func (p plan) key() string { return fmt.Sprintf("%s|%s|%d", p.spec.Name, p.scale, p.ds.Index) }

// opResult is what one finished campaign reports back through its
// topology's public surface.
type opResult struct {
	digest     string
	injections int
	// Daemon-side timestamps and client-side RPC costs, filled where the
	// topology exposes them (HTTP topologies); the traced run folds them
	// into the service.* layer metrics.
	submit    time.Duration
	pollBusy  time.Duration
	polls     int
	queueWait time.Duration
	run       time.Duration
}

// topology runs campaigns through one of the four deployment shapes. run
// returns only once the campaign is terminal and its digest has been read
// back from the durable store by the same path that shape's CLI uses.
type topology interface {
	run(ctx context.Context, client int, p plan) (opResult, error)
	close()
}

// --- in-process and process-isolated: harness.Env directly ----------------

// harnessTopo is `hauberk-run -campaign-dir` without the process:
// PrepareCampaign once per plan, then RunPrepared + LoadCampaignDir per
// campaign, each into a fresh store directory.
type harnessTopo struct {
	isolation string
	dir       string
	tel       *obs.Telemetry
	// env is the one environment every plan was prepared in (a workload's
	// plans share one scale).
	env      *harness.Env
	prepared map[string]*harness.PreparedCampaign
	seq      atomic.Int64
}

// envFor builds the environment one hauberk-run at the given scale has.
func envFor(scale string) (*harness.Env, error) {
	sc, ok := harness.ScaleByName(scale)
	if !ok {
		return nil, fmt.Errorf("bench: unknown scale %q", scale)
	}
	return harness.NewEnv(sc), nil
}

// newHarnessTopo prepares every plan cold in one fresh environment.
func newHarnessTopo(dir, isolation string, plans []plan) (*harnessTopo, error) {
	env, err := envFor(plans[0].scale)
	if err != nil {
		return nil, err
	}
	t := &harnessTopo{isolation: isolation, dir: dir, tel: obs.Nop(), env: env, prepared: make(map[string]*harness.PreparedCampaign)}
	for _, p := range plans {
		pc, err := env.PrepareCampaign(p.spec, p.ds)
		if err != nil {
			return nil, fmt.Errorf("bench: prepare %s: %w", p.key(), err)
		}
		t.prepared[p.key()] = pc
		// Warm-up: one real campaign over a few of the plan's injections, so the
		// FT kernel is instrumented and compiled, pools are filled and (for
		// isolation) a worker has been spawned once before timing starts.
		if _, err := t.runPrepared(context.Background(), env, strideOf(pc, warmInjections)); err != nil {
			return nil, fmt.Errorf("bench: warm-up %s: %w", p.key(), err)
		}
	}
	return t, nil
}

// warmInjections sizes the harness topologies' warm-up campaign.
const warmInjections = 8

// strideOf returns a copy of pc planning an even stride of at most n of
// its injections. The store manifest hashes the plan, so the shortened
// campaign is a self-consistent campaign of its own.
func strideOf(pc *harness.PreparedCampaign, n int) *harness.PreparedCampaign {
	if n >= len(pc.Plan) {
		return pc
	}
	short := *pc
	short.Plan = make([]harness.Injection, 0, n)
	for i := 0; i < n; i++ {
		short.Plan = append(short.Plan, pc.Plan[i*len(pc.Plan)/n])
	}
	return &short
}

func (t *harnessTopo) run(ctx context.Context, _ int, p plan) (opResult, error) {
	pc := t.prepared[p.key()]
	if pc == nil {
		return opResult{}, fmt.Errorf("bench: plan %s was not prepared", p.key())
	}
	return t.runPrepared(ctx, t.env, pc)
}

// runPrepared is one campaign: run, then read the store back and fold the
// digest exactly as hauberk-run prints it.
func (t *harnessTopo) runPrepared(ctx context.Context, env *harness.Env, pc *harness.PreparedCampaign) (opResult, error) {
	dir := filepath.Join(t.dir, fmt.Sprintf("c%06d", t.seq.Add(1)))
	env = env.Clone().WithObs(t.tel)
	if _, err := env.RunPrepared(ctx, pc, harness.CampaignOptions{Dir: dir, Isolation: t.isolation}); err != nil {
		return opResult{}, err
	}
	_, merged, err := harness.LoadCampaignDir(dir)
	if err != nil {
		return opResult{}, err
	}
	os.RemoveAll(dir) //nolint:errcheck // housekeeping; the scratch root is removed at exit regardless
	return opResult{digest: merged.FigureDigest(), injections: merged.All.Total()}, nil
}

func (t *harnessTopo) close() {}

// --- hauberkd over HTTP ---------------------------------------------------

// startDaemon builds and starts one in-process hauberkd on an ephemeral
// loopback port with the repo's defaults apart from the sizes given.
func startDaemon(storeRoot string, slots, queueDepth int) (*service.Daemon, error) {
	d, err := service.NewDaemon(service.Config{
		Addr:       "127.0.0.1:0",
		StoreRoot:  storeRoot,
		Slots:      slots,
		QueueDepth: queueDepth,
	})
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

func stopDaemon(d *service.Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.Shutdown(ctx) //nolint:errcheck // teardown of a daemon whose campaigns are all terminal
}

// daemonTopo is closed-loop HTTP clients against one hauberkd: each
// client owns one connection and one tenant, submits a campaign, and
// polls its status until terminal.
type daemonTopo struct {
	d       *service.Daemon
	root    string
	base    string
	clients []*http.Client
	// rejected counts 429 answers (admission pushback); expected 0.
	rejected atomic.Int64
}

// daemonPoll is the status poll period of the closed-loop clients.
const daemonPoll = time.Millisecond

func newDaemonTopo(dir string, slots, queueDepth, clients int) (*daemonTopo, error) {
	d, err := startDaemon(dir, slots, queueDepth)
	if err != nil {
		return nil, err
	}
	t := &daemonTopo{d: d, root: dir, base: "http://" + d.Addr()}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	return t, nil
}

// errRejected marks a 429: the submission was refused, not run.
type errRejected struct{ retryAfter string }

func (e *errRejected) Error() string {
	return "bench: submission rejected (429), Retry-After " + e.retryAfter
}

// submit POSTs one campaign and decodes the accepted status.
func submit(ctx context.Context, hc *http.Client, base string, sub service.Submission) (service.Status, error) {
	var st service.Status
	body, err := json.Marshal(sub)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		return st, json.NewDecoder(resp.Body).Decode(&st)
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
		return st, &errRejected{retryAfter: resp.Header.Get("Retry-After")}
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error text
	return st, fmt.Errorf("bench: submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
}

// status GETs one campaign's status document.
func status(ctx context.Context, hc *http.Client, base, id string) (service.Status, error) {
	var st service.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
		return st, fmt.Errorf("bench: status %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (t *daemonTopo) run(ctx context.Context, client int, p plan) (opResult, error) {
	hc := t.clients[client%len(t.clients)]
	t0 := time.Now()
	st, err := submit(ctx, hc, t.base, service.Submission{
		Tenant:  fmt.Sprintf("bench%d", client),
		Program: p.spec.Name,
		Scale:   p.scale,
		Dataset: p.ds.Index,
	})
	if err != nil {
		if _, ok := err.(*errRejected); ok {
			t.rejected.Add(1)
		}
		return opResult{}, err
	}
	res := opResult{submit: time.Since(t0)}
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(daemonPoll):
		}
		p0 := time.Now()
		if st, err = status(ctx, hc, t.base, st.ID); err != nil {
			return res, err
		}
		res.pollBusy += time.Since(p0)
		res.polls++
	}
	if st.State != service.StateDone {
		return res, fmt.Errorf("bench: campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	// Prune the verified campaign's store, as an operator's housekeeping
	// would: left in place, 10^4 small directories per run keep the host
	// file system's journal busy into the next run (measured on ext4:
	// throughput drifting 1490 -> 1050 inj/s over six back-to-back runs,
	// against +-1.3% on tmpfs), which is the disk's noise, not the
	// daemon's. The daemon keeps the campaign in memory either way.
	os.RemoveAll(filepath.Join(t.root, st.ID)) //nolint:errcheck // housekeeping; the scratch root is removed at exit regardless
	res.digest = st.Digest
	res.injections = st.Progress.Completed
	res.queueWait = st.StartedAt.Sub(st.SubmittedAt)
	res.run = st.FinishedAt.Sub(st.StartedAt)
	return res, nil
}

func (t *daemonTopo) close() {
	stopDaemon(t.d)
	for _, hc := range t.clients {
		hc.CloseIdleConnections()
	}
}

// --- hauberk-fleet over N daemons -------------------------------------------

// fleetTopo is `hauberk-fleet` without the process: one coordinator per
// campaign over a fixed roster of single-slot daemons, default poll period
// and RPC policy.
type fleetTopo struct {
	daemons []*service.Daemon
	nodes   []string
	dir     string
	tr      *fleet.Transport
	seq     atomic.Int64
	// failovers accumulates Result.Failovers; with tr.Retries() it must
	// stay 0 for a run to count.
	failovers atomic.Int64
	// lastMerge is the most recent campaign's merge directory (the fleet
	// topology has one client, so one campaign at a time).
	lastMerge string
}

func newFleetTopo(dir string, nodes int) (*fleetTopo, error) {
	t := &fleetTopo{dir: dir, tr: fleet.NewTransport(0)}
	for i := 0; i < nodes; i++ {
		d, err := startDaemon(filepath.Join(dir, fmt.Sprintf("node%d", i)), 1, 0)
		if err != nil {
			t.close()
			return nil, err
		}
		t.daemons = append(t.daemons, d)
		t.nodes = append(t.nodes, d.Addr())
	}
	return t, nil
}

func (t *fleetTopo) run(ctx context.Context, _ int, p plan) (opResult, error) {
	retries := t.tr.Retries()
	t.lastMerge = filepath.Join(t.dir, fmt.Sprintf("merge%06d", t.seq.Add(1)))
	co, err := fleet.New(fleet.Config{
		Nodes:     t.nodes,
		Transport: t.tr,
		Submission: service.Submission{
			Tenant:  "bench",
			Program: p.spec.Name,
			Scale:   p.scale,
			Dataset: p.ds.Index,
		},
		Shards:   len(t.nodes),
		MergeDir: t.lastMerge,
	})
	if err != nil {
		return opResult{}, err
	}
	res, err := co.Run(ctx)
	if err != nil {
		return opResult{}, err
	}
	t.failovers.Add(int64(res.Failovers))
	if res.Failovers != 0 || t.tr.Retries() != retries {
		return opResult{}, fmt.Errorf("bench: fleet campaign %s needed %d failovers, %d RPC retries (expected none)",
			p.key(), res.Failovers, t.tr.Retries()-retries)
	}
	return opResult{digest: res.Digest, injections: res.Merged.All.Total()}, nil
}

func (t *fleetTopo) close() {
	for _, d := range t.daemons {
		stopDaemon(d)
	}
	t.tr.HTTP.CloseIdleConnections()
}

// Command hauberk-load is the service load harness: it drives a burst
// of concurrent campaign submissions through hauberkd's HTTP API and
// verifies the service contract under load — every accepted campaign
// finishes exactly once, every digest is byte-identical (same plan →
// same digest regardless of scheduling), and admission control engages
// (429 + Retry-After) instead of unbounded queueing. Results land in
// BENCH_service.json.
//
// By default it self-hosts a daemon in-process on an ephemeral port
// with a deliberately small queue so rejections are exercised; point
// -base at a running hauberkd to load an external instance instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hauberk/internal/service"
	"hauberk/internal/version"
)

func main() {
	os.Exit(run())
}

type opts struct {
	base       string
	n          int
	clients    int
	tenants    int
	slots      int
	queueDepth int
	program    string
	scale      string
	dataset    int
	out        string
	timeout    time.Duration
}

// benchDoc is the BENCH_service.json schema.
type benchDoc struct {
	N           int     `json:"n"`
	Clients     int     `json:"clients"`
	Tenants     int     `json:"tenants"`
	Slots       int     `json:"slots"`
	QueueDepth  int     `json:"queue_depth"`
	Program     string  `json:"program"`
	Scale       string  `json:"scale"`
	DurationS   float64 `json:"duration_s"`
	Throughput  float64 `json:"throughput_cps"`
	SubmitP50ms float64 `json:"submit_p50_ms"`
	SubmitP99ms float64 `json:"submit_p99_ms"`
	E2EP50ms    float64 `json:"e2e_p50_ms"`
	E2EP90ms    float64 `json:"e2e_p90_ms"`
	E2EP99ms    float64 `json:"e2e_p99_ms"`
	Rejected429 int64   `json:"rejected_429"`
	Digest      string  `json:"digest"`
	HostCores   int     `json:"host_cores"`
	Version     string  `json:"version"`
	GoVersion   string  `json:"go_version"`
}

func run() int {
	var o opts
	flag.StringVar(&o.base, "base", "", "target daemon base URL; empty self-hosts one in-process")
	flag.IntVar(&o.n, "n", 1000, "total campaign submissions")
	flag.IntVar(&o.clients, "clients", 64, "concurrent submitting clients")
	flag.IntVar(&o.tenants, "tenants", 4, "distinct tenants to spread submissions across")
	flag.IntVar(&o.slots, "slots", runtime.NumCPU(), "self-hosted daemon: concurrent campaign slots")
	flag.IntVar(&o.queueDepth, "queue-depth", 16, "self-hosted daemon: per-tenant queue bound (small, so 429s engage)")
	flag.StringVar(&o.program, "program", "CP", "workload program to submit")
	flag.StringVar(&o.scale, "scale", "tiny", "campaign scale: tiny, quick or full")
	flag.IntVar(&o.dataset, "dataset", 0, "dataset index")
	flag.StringVar(&o.out, "out", "BENCH_service.json", "result JSON path (empty disables)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Minute, "overall deadline")
	flag.Parse()

	if o.clients < 1 || o.tenants < 1 || o.n < 1 {
		fmt.Fprintln(os.Stderr, "hauberk-load: -n, -clients and -tenants must be positive")
		return 2
	}

	base := o.base
	if base == "" {
		storeDir, err := os.MkdirTemp("", "hauberk-load-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(storeDir)
		d, err := service.NewDaemon(service.Config{
			Addr:       "127.0.0.1:0",
			StoreRoot:  storeDir,
			Slots:      o.slots,
			QueueDepth: o.queueDepth,
		})
		if err != nil {
			return fail(err)
		}
		if err := d.Start(); err != nil {
			return fail(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			d.Shutdown(ctx) //nolint:errcheck // best-effort stop after the verdict
		}()
		base = "http://" + d.Addr()
		fmt.Printf("load: self-hosted daemon at %s (slots=%d queue-depth=%d)\n",
			base, o.slots, o.queueDepth)
	}

	doc, err := drive(base, o)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("load: %d campaigns in %.2fs (%.1f/s), 429s=%d, e2e p50=%.0fms p99=%.0fms\n",
		doc.N, doc.DurationS, doc.Throughput, doc.Rejected429, doc.E2EP50ms, doc.E2EP99ms)
	if o.out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("load: wrote %s\n", o.out)
	}
	return 0
}

// result is one submission's end-to-end record.
type result struct {
	id        string
	digest    string
	state     string
	submitDur time.Duration
	e2eDur    time.Duration
}

// drive runs the load: o.clients goroutines submit o.n campaigns round-
// robin across o.tenants, honoring 429 Retry-After, then long-poll each
// to a terminal state.
func drive(base string, o opts) (*benchDoc, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.clients * 2,
		MaxIdleConnsPerHost: o.clients * 2,
	}}
	deadline := time.Now().Add(o.timeout)

	var rejected atomic.Int64
	results := make([]result, o.n)
	errs := make(chan error, o.clients)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < o.n; i++ {
			next <- i
		}
		close(next)
	}()

	start := time.Now()
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := submitAndWait(client, base, o, i, deadline, &rejected)
				if err != nil {
					select {
					case errs <- fmt.Errorf("submission %d: %w", i, err):
					default:
					}
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	total := time.Since(start)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	// Contract checks: unique ids, everything done, one digest.
	ids := make(map[string]bool, o.n)
	digest := ""
	for i, r := range results {
		if r.state != "done" {
			return nil, fmt.Errorf("campaign %d (%s) finished %q, want done", i, r.id, r.state)
		}
		if ids[r.id] {
			return nil, fmt.Errorf("duplicate campaign id %s", r.id)
		}
		ids[r.id] = true
		if r.digest == "" {
			return nil, fmt.Errorf("campaign %s finished without a digest", r.id)
		}
		if digest == "" {
			digest = r.digest
		} else if r.digest != digest {
			return nil, fmt.Errorf("digest mismatch: campaign %s diverged from the fleet", r.id)
		}
	}

	submitDurs := make([]time.Duration, o.n)
	e2eDurs := make([]time.Duration, o.n)
	for i, r := range results {
		submitDurs[i] = r.submitDur
		e2eDurs[i] = r.e2eDur
	}
	return &benchDoc{
		N:           o.n,
		Clients:     o.clients,
		Tenants:     o.tenants,
		Slots:       o.slots,
		QueueDepth:  o.queueDepth,
		Program:     o.program,
		Scale:       o.scale,
		DurationS:   total.Seconds(),
		Throughput:  float64(o.n) / total.Seconds(),
		SubmitP50ms: pctMS(submitDurs, 50),
		SubmitP99ms: pctMS(submitDurs, 99),
		E2EP50ms:    pctMS(e2eDurs, 50),
		E2EP90ms:    pctMS(e2eDurs, 90),
		E2EP99ms:    pctMS(e2eDurs, 99),
		Rejected429: rejected.Load(),
		Digest:      digest,
		HostCores:   runtime.NumCPU(),
		Version:     version.Version,
		GoVersion:   version.GoVersion(),
	}, nil
}

// submitAndWait submits one campaign (retrying on 429 per Retry-After)
// and long-polls it to a terminal state.
func submitAndWait(client *http.Client, base string, o opts, i int, deadline time.Time, rejected *atomic.Int64) (result, error) {
	body, err := json.Marshal(service.Submission{
		Tenant:  fmt.Sprintf("tenant-%d", i%o.tenants),
		Program: o.program,
		Scale:   o.scale,
		Dataset: o.dataset,
	})
	if err != nil {
		return result{}, err
	}

	var st service.Status
	submitStart := time.Now()
	for {
		if time.Now().After(deadline) {
			return result{}, fmt.Errorf("deadline exceeded while submitting")
		}
		resp, err := client.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return result{}, err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close() //nolint:errcheck
		if err != nil {
			return result{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected.Add(1)
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if n, err := strconv.Atoi(s); err == nil && n > 0 {
					wait = time.Duration(n) * time.Second
				}
			}
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusCreated {
			return result{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return result{}, fmt.Errorf("submit response: %w", err)
		}
		break
	}
	submitDur := time.Since(submitStart)

	for {
		if time.Now().After(deadline) {
			return result{}, fmt.Errorf("deadline exceeded waiting for %s", st.ID)
		}
		asked := time.Now()
		resp, err := client.Get(base + "/v1/campaigns/" + st.ID + "?wait=" + statusWait.String())
		if err != nil {
			return result{}, err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close() //nolint:errcheck
		if err != nil {
			return result{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return result{}, fmt.Errorf("status %s: %s: %s", st.ID, resp.Status, bytes.TrimSpace(raw))
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return result{}, fmt.Errorf("status response: %w", err)
		}
		if st.State.Terminal() {
			return result{
				id:        st.ID,
				digest:    st.Digest,
				state:     string(st.State),
				submitDur: submitDur,
				e2eDur:    time.Since(submitStart),
			}, nil
		}
		// An unsettled answer that came back early (interrupted by a drain,
		// or a daemon without ?wait=) is re-asked no sooner than 25 ms after
		// the previous ask.
		time.Sleep(time.Until(asked.Add(25 * time.Millisecond)))
	}
}

// statusWait bounds one status long-poll: the daemon answers as soon as
// the campaign settles, or after this long with it still running.
const statusWait = 10 * time.Second

// pctMS returns the p-th percentile of durations in milliseconds.
func pctMS(durs []time.Duration, p int) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	k := (len(sorted) - 1) * p / 100
	return float64(sorted[k]) / float64(time.Millisecond)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hauberk-load:", err)
	return 1
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"hauberk/internal/obs"
	"hauberk/internal/obs/obshttp"
)

// apiServer is the daemon's HTTP plane. The observability endpoints
// (/metrics, /events, health) are the exported obshttp handlers — the
// same code that serves `hauberk-run -http` — mounted next to the
// campaign API:
//
//	POST   /v1/campaigns             submit (201; 429 when the tenant
//	                                 queue is full, with Retry-After;
//	                                 503 while draining)
//	GET    /v1/campaigns             list all campaign statuses
//	GET    /v1/campaigns/{id}        one campaign's status; ?wait=5s
//	                                 holds the answer until the campaign
//	                                 settles or the wait elapses
//	DELETE /v1/campaigns/{id}        cancel (dequeue or interrupt)
//	GET    /v1/campaigns/{id}/events that campaign's live event feed
//	                                 (NDJSON/SSE, ?replay=N)
//	GET    /v1/campaigns/{id}/store  the campaign's durable store
//	                                 (manifest + raw shard logs) for the
//	                                 fleet coordinator's read-side merge
//	GET    /v1/node                  the daemon's own health document
//	                                 (draining, running/queued counts)
//	GET    /metrics                  Prometheus text exposition
//	GET    /healthz                  liveness
//	GET    /readyz                   readiness (503 while draining)
type apiServer struct {
	d       *Daemon
	srv     *http.Server
	ln      net.Listener
	started time.Time
	done    chan struct{}
	err     error
}

func newAPIServer(d *Daemon) *apiServer {
	a := &apiServer{d: d, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", a.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", a.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", a.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", a.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", a.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/store", a.handleStore)
	mux.HandleFunc("GET /v1/node", a.handleNode)
	mux.HandleFunc("GET /metrics", obshttp.MetricsHandler(d.reg, a.stamp))
	mux.HandleFunc("GET /healthz", obshttp.HealthzHandler())
	mux.HandleFunc("GET /readyz", obshttp.ReadyzHandler(func() (bool, string) {
		if d.Draining() {
			return false, "draining"
		}
		return true, ""
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

func (a *apiServer) start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", addr, err)
	}
	a.ln = ln
	a.started = time.Now()
	go func() {
		defer close(a.done)
		if err := a.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			a.err = err
		}
	}()
	return nil
}

func (a *apiServer) addr() string {
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// shutdown drains in-flight requests; past the deadline the remaining
// connections (long-lived /events streams) are force-closed.
func (a *apiServer) shutdown(ctx context.Context) error {
	err := a.srv.Shutdown(ctx)
	if err != nil {
		a.srv.Close() //nolint:errcheck // force-close event streams past the deadline
	}
	select {
	case <-a.done:
	case <-ctx.Done():
	}
	if a.err != nil {
		return a.err
	}
	return err
}

// stamp refreshes the serving-standard series before a /metrics write;
// dropped events are summed across every campaign's broadcaster.
func (a *apiServer) stamp(reg *obs.Registry) {
	a.d.mu.Lock()
	var dropped int64
	for _, c := range a.d.campaigns {
		dropped += c.bcast.Dropped()
	}
	a.d.mu.Unlock()
	obshttp.StampProcessSeries(reg, a.started, func() int64 { return dropped })
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write is not actionable
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (a *apiServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad submission: %w", err))
		return
	}
	c, err := a.d.Submit(sub)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(a.d.sched.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/v1/campaigns/"+c.ID)
		writeJSON(w, http.StatusCreated, c.Status())
	}
}

func (a *apiServer) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Campaigns []Status `json:"campaigns"`
	}{a.d.List()})
}

// maxStatusWait caps a status long-poll, so a parked request cannot
// outlive any sane client deadline.
const maxStatusWait = time.Minute

// handleStatus answers at once, or with ?wait=<duration> (Go syntax,
// e.g. 5s) holds the request until the campaign settles — done, failed,
// canceled or interrupted — or the wait elapses, whichever is first. Both
// answer 200 with the status as it then is. A drain releases every parked
// request, so a long-poll never holds up Shutdown.
func (a *apiServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, err := a.d.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if q := r.URL.Query().Get("wait"); q != "" {
		wait, err := time.ParseDuration(q)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: want a non-negative duration such as 5s", q))
			return
		}
		why := c.await(r.Context(), a.d.baseCtx.Done(), min(wait, maxStatusWait))
		a.d.reg.Counter("hauberkd_status_waits_total", "result", why).Inc()
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (a *apiServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := a.d.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *apiServer) handleStore(w http.ResponseWriter, r *http.Request) {
	snap, err := a.d.StoreSnapshot(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (a *apiServer) handleNode(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.d.NodeStatus())
}

func (a *apiServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, err := a.d.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	obshttp.EventsHandler(c.bcast)(w, r)
}

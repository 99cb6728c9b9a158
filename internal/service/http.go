package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hauberk/internal/obs/obshttp"
)

// readAPI is the campaign read side, written once and served by both
// binaries — hauberkd over its campaign table, `hauberk-run -http` over
// its one run (Monitor):
//
//	GET /v1/campaigns             list all campaign statuses
//	GET /v1/campaigns/{id}        one campaign's status; ?wait=5s holds
//	                              the answer until the campaign settles
//	                              or the wait elapses
//	GET /v1/campaigns/{id}/events that campaign's live event feed
//	                              (NDJSON/SSE, ?replay=N)
type readAPI struct {
	get  func(id string) (*Campaign, error)
	list func() []Status
	// stop closes when the server begins shutting down; it releases
	// every parked long-poll.
	stop <-chan struct{}
	// waited, when set, counts how each long-poll ended.
	waited func(result string)
}

func (a readAPI) mount(s *obshttp.Server) {
	s.Handle("GET /v1/campaigns", a.handleList)
	s.Handle("GET /v1/campaigns/{id}", a.handleStatus)
	s.Handle("GET /v1/campaigns/{id}/events", a.handleEvents)
}

// newAPIServer is the daemon's HTTP plane: obshttp's shared mounts
// (/metrics, /healthz, /readyz — 503 while draining —, pprof), the read
// API, and the daemon's write side:
//
//	POST   /v1/campaigns             submit (201; 429 when the tenant
//	                                 queue is full, with Retry-After;
//	                                 503 while draining)
//	DELETE /v1/campaigns/{id}        cancel (dequeue or interrupt)
//	GET    /v1/campaigns/{id}/store  the campaign's durable store
//	                                 (manifest + record lines) for the
//	                                 fleet coordinator's read-side merge
//	GET    /v1/node                  the daemon's own health document
//	                                 (draining, running/queued counts)
func newAPIServer(d *Daemon) *obshttp.Server {
	s := obshttp.New(obshttp.Config{
		Addr:     d.cfg.Addr,
		Registry: d.reg,
		Dropped:  d.droppedEvents,
		Ready: func() (bool, string) {
			if d.Draining() {
				return false, "draining"
			}
			return true, ""
		},
	})
	readAPI{
		get:  d.Get,
		list: d.List,
		stop: d.baseCtx.Done(),
		waited: func(result string) {
			d.reg.Counter("hauberkd_status_waits_total", "result", result).Inc()
		},
	}.mount(s)
	s.Handle("POST /v1/campaigns", d.handleSubmit)
	s.Handle("DELETE /v1/campaigns/{id}", d.handleCancel)
	s.Handle("GET /v1/campaigns/{id}/store", d.handleStore)
	s.Handle("GET /v1/node", d.handleNode)
	return s
}

// droppedEvents is the live events dropped by every campaign's
// broadcaster: summed over the campaigns that still have one, plus the
// count the shed ones handed over, so the total never decreases.
func (d *Daemon) droppedEvents() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	dropped := d.shedDropped
	for c := range d.live {
		dropped += c.droppedEvents()
	}
	return dropped
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-write is not actionable
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (a readAPI) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Campaigns []Status `json:"campaigns"`
	}{a.list()})
}

// maxStatusWait caps a status long-poll, so a parked request cannot
// outlive any sane client deadline.
const maxStatusWait = time.Minute

// handleStatus answers at once, or with ?wait=<duration> holds the
// request until the campaign settles — done, failed, canceled or
// interrupted — or the wait elapses, whichever is first. Both answer 200
// with the status as it then is. Shutting down releases every parked
// request, so a long-poll never holds up a drain.
func (a readAPI) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, err := a.get(r.PathValue("id"))
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
		why := c.await(r.Context(), a.stop, min(wait, maxStatusWait))
		if a.waited != nil {
			a.waited(why)
		}
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// handleEvents streams the campaign's events. A campaign that has shed
// its telemetry plane has none left: 410 Gone.
func (a readAPI) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, err := a.get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	b := c.events()
	if b == nil {
		writeError(w, http.StatusGone, fmt.Errorf(
			"campaign %s has no event history: a daemon keeps it for its newest %d finished campaigns, and for none finished before it started; its status and store remain",
			c.ID, retainedCampaigns))
		return
	}
	obshttp.EventsHandler(b)(w, r)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad submission: %w", err))
		return
	}
	c, err := d.Submit(sub)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(d.sched.RetryAfter()))
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

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := d.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleStore(w http.ResponseWriter, r *http.Request) {
	snap, err := d.StoreSnapshot(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (d *Daemon) handleNode(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.NodeStatus())
}

package service

import (
	"context"
	"fmt"
	"os"
	"sync"

	"hauberk/internal/obs"
	"hauberk/internal/obs/obshttp"
)

// Monitor serves one campaign run outside a daemon — the run of
// `hauberk-run -http` — over the daemon's read API (GET /v1/campaigns,
// /v1/campaigns/{id} with ?wait=, /v1/campaigns/{id}/events) next to
// obshttp's shared mounts. So a run and a hauberkd campaign have one
// status document (Status) and one client (fleet.Client).
type Monitor struct {
	c        *Campaign
	srv      *obshttp.Server
	stop     chan struct{}
	stopOnce sync.Once
}

// ServeMonitor starts serving one running campaign described by sub on
// addr (":0" picks a port). Its events flow through Telemetry, which also
// writes them to journal (nil: no journal) and owns it: Telemetry().Close
// closes it, as does a failed ServeMonitor. The campaign's ID is r<pid>.
// /readyz answers 503 until the first event arrives.
func ServeMonitor(addr string, sub Submission, journal obs.Sink) (*Monitor, error) {
	c := newCampaign(fmt.Sprintf("r%06d", os.Getpid()), sub, journal, nil)
	c.setState(StateRunning, func() { c.startedAt = c.submittedAt })
	m := &Monitor{c: c, stop: make(chan struct{})}
	m.srv = obshttp.New(obshttp.Config{
		Addr:     addr,
		Registry: c.tel.Metrics(),
		Dropped:  c.bcast.Dropped,
		Ready: func() (bool, string) {
			if c.tracker.Snapshot().LastSeq == 0 {
				return false, "no telemetry yet"
			}
			return true, ""
		},
	})
	readAPI{
		get: func(id string) (*Campaign, error) {
			if id != c.ID {
				return nil, ErrNotFound
			}
			return c, nil
		},
		list: func() []Status { return []Status{c.Status()} },
		stop: m.stop,
	}.mount(m.srv)
	if err := m.srv.Start(); err != nil {
		c.tel.Close() //nolint:errcheck // the listen error is the one to report
		return nil, err
	}
	return m, nil
}

// ID is the campaign's ID on the read API.
func (m *Monitor) ID() string { return m.c.ID }

// Addr is the bound listen address.
func (m *Monitor) Addr() string { return m.srv.Addr() }

// Telemetry is the run's telemetry: its events feed the campaign's
// status and event feed, and its registry is what /metrics serves.
func (m *Monitor) Telemetry() *obs.Telemetry { return m.c.tel }

// Finish publishes the run's final state: done (with the figure digest
// of a whole-plan campaign, or ""), interrupted, or failed with err.
func (m *Monitor) Finish(state State, digest string, err error) {
	m.c.setState(state, func() {
		m.c.digest = digest
		if err != nil {
			m.c.errMsg = err.Error()
		}
	})
}

// Shutdown releases every parked long-poll, then drains the listener
// (force-closing event streams past ctx). Safe to call more than once.
func (m *Monitor) Shutdown(ctx context.Context) error {
	m.stopOnce.Do(func() { close(m.stop) })
	return m.srv.Shutdown(ctx)
}

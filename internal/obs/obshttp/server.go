// Package obshttp is what every hauberk HTTP listener mounts once:
// hauberkd's API server and the monitor behind `hauberk-run -http` are
// both a Server from here, with their campaign routes (the daemon's /v1
// API, see internal/service) mounted next to the shared ones:
//
//	/metrics      Prometheus text exposition of the obs registry plus
//	              process series (build info, uptime, goroutines,
//	              dropped live events)
//	/healthz      liveness (200 once serving)
//	/readyz       readiness, answered by the binary's probe
//	/debug/pprof  the standard Go profiling handlers
//
// EventsHandler is the one event-feed handler both binaries serve per
// campaign. The plane is strictly an observer: it subscribes to event
// broadcasters and reads the registry, never touching the campaign
// engine, which is why figure digests are byte-identical with the
// monitor on or off.
package obshttp

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"hauberk/internal/obs"
	"hauberk/internal/version"
)

// Config wires a Server to the process's telemetry.
type Config struct {
	// Addr is the listen address (e.g. "127.0.0.1:8344"; ":0" picks an
	// ephemeral port, reported by Addr after Start).
	Addr string
	// Registry is scraped by /metrics.
	Registry *obs.Registry
	// Dropped, when set, reports the live events dropped across the
	// listener's event feeds (hauberk_events_dropped_total).
	Dropped func() int64
	// Ready answers /readyz: false answers 503 with the reason. Nil is
	// always ready.
	Ready func() (bool, string)
}

// Server is one listener: the shared mounts plus whatever the binary
// adds with Handle before Start.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	routes []string
	ln     net.Listener
	srv    *http.Server
	start  time.Time
	done   chan struct{}
	err    error
}

// New builds a server with the shared mounts (not yet listening).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), done: make(chan struct{})}
	s.Handle("GET /metrics", s.handleMetrics)
	s.Handle("GET /healthz", s.handleHealthz)
	s.Handle("GET /readyz", s.handleReadyz)
	s.Handle("/debug/pprof/", pprof.Index)
	s.Handle("/debug/pprof/cmdline", pprof.Cmdline)
	s.Handle("/debug/pprof/profile", pprof.Profile)
	s.Handle("/debug/pprof/symbol", pprof.Symbol)
	s.Handle("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Handle mounts one route (a net/http ServeMux pattern).
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.routes = append(s.routes, pattern)
}

// Routes lists the mounted patterns in mount order.
func (s *Server) Routes() []string { return append([]string(nil), s.routes...) }

// Start binds the listener and serves in the background. It returns
// once the address is bound, so Addr is immediately valid.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("obshttp: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.start = time.Now()
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.err = err
		}
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains in-flight requests; when the context expires first
// (an event stream with a connected client never goes idle) the
// remaining connections are force-closed so shutdown always completes.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // force-close streams past the drain deadline
	}
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	if s.err != nil {
		return s.err
	}
	return err
}

// handleMetrics stamps the serving-standard series (build info, uptime,
// goroutines, dropped live events) and writes the whole registry as
// Prometheus text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.cfg.Registry
	if reg == nil {
		http.Error(w, "no metrics registry", http.StatusServiceUnavailable)
		return
	}
	reg.Help("hauberk_build_info", "build identity; value is always 1")
	reg.Gauge("hauberk_build_info",
		"version", version.Version, "goversion", version.GoVersion()).Set(1)
	reg.Help("hauberk_uptime_seconds", "seconds since the server started")
	reg.Gauge("hauberk_uptime_seconds").Set(time.Since(s.start).Seconds())
	reg.Help("hauberk_goroutines", "live goroutines in the process")
	reg.Gauge("hauberk_goroutines").Set(float64(runtime.NumGoroutine()))
	if s.cfg.Dropped != nil {
		reg.Help("hauberk_events_dropped_total",
			"live-tail events dropped across all event-feed subscribers (journal stays complete)")
		reg.Gauge("hauberk_events_dropped_total").Set(float64(s.cfg.Dropped()))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WriteProm(w) //nolint:errcheck // client gone mid-write is not actionable
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ready != nil {
		if ok, reason := s.cfg.Ready(); !ok {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ready")
}

// EventsHandler streams a broadcaster's event journal: retained history
// first (bounded by ?replay=N), then live events until the client
// disconnects or the broadcaster closes. NDJSON lines by default; SSE
// frames with ?format=sse or an Accept: text/event-stream header. A nil
// broadcaster answers 410.
func EventsHandler(b *obs.Broadcaster) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if b == nil {
			http.Error(w, "event streaming disabled", http.StatusGone)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sse := r.URL.Query().Get("format") == "sse" ||
			r.Header.Get("Accept") == "text/event-stream"
		replay := -1 // all retained history
		if v := r.URL.Query().Get("replay"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad replay count", http.StatusBadRequest)
				return
			}
			replay = n
		}

		sub := b.Subscribe(1024)
		defer sub.Close()
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		flusher.Flush()

		var buf []byte
		write := func(e obs.Event) bool {
			buf = buf[:0]
			if sse {
				buf = append(buf, "data: "...)
			}
			buf = e.AppendJSON(buf)
			buf = append(buf, '\n')
			if sse {
				buf = append(buf, '\n')
			}
			if _, err := w.Write(buf); err != nil {
				return false
			}
			flusher.Flush()
			return true
		}

		hist := sub.Replay()
		if replay >= 0 && replay < len(hist) {
			hist = hist[len(hist)-replay:]
		}
		for _, e := range hist {
			if !write(e) {
				return
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case e, ok := <-sub.Events():
				if !ok {
					return
				}
				if !write(e) {
					return
				}
			}
		}
	}
}

package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Lookup (Counter/Gauge/Histogram) takes a
// mutex and is meant for setup paths or per-launch frequency; the
// returned handles update through atomics and are safe — and cheap — on
// hot paths.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric // keyed by family + rendered label set
	help    map[string]string // keyed by family
}

// metric is the common interface the exposition writer walks.
type metric interface {
	family() string
	labels() string
	promType() string
	// write appends the exposition lines for this series.
	write(sb *strings.Builder, family, labelStr string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric), help: make(map[string]string)}
}

// Help sets the exposition HELP text for a metric family.
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = text
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline (in that
// single-pass order, so an already-escaped sequence is not re-escaped
// into garbage). Values without those bytes are returned unchanged.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// escapeHelp escapes HELP text per the exposition format: backslash and
// newline only (quotes are legal in help text).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// labelString renders k,v pairs as a deterministic {a="b",c="d"} block.
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(kv[i+1]))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// lookup returns the existing metric for family+labels or installs the
// one built by mk. It panics when the name is reused with a different
// metric type — that is a programming error, not runtime input.
func (r *Registry) lookup(family string, kv []string, mk func(labelStr string) metric) metric {
	ls := labelString(kv)
	key := family + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		return m
	}
	m := mk(ls)
	r.metrics[key] = m
	return m
}

// --- counter --------------------------------------------------------------

// Counter is a monotonically increasing integer.
type Counter struct {
	fam string
	lab string
	v   atomic.Int64
}

// Counter returns the counter for family name and optional k,v label
// pairs, creating it on first use.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	m := r.lookup(family, labels, func(ls string) metric { return &Counter{fam: family, lab: ls} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a counter", family, labelString(labels)))
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must not be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) family() string   { return c.fam }
func (c *Counter) labels() string   { return c.lab }
func (c *Counter) promType() string { return "counter" }
func (c *Counter) write(sb *strings.Builder, family, labelStr string) {
	fmt.Fprintf(sb, "%s%s %d\n", family, labelStr, c.v.Load())
}

// --- gauge ----------------------------------------------------------------

// Gauge is a float value that can go up and down.
type Gauge struct {
	fam  string
	lab  string
	bits atomic.Uint64
}

// Gauge returns the gauge for family name and optional labels.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	m := r.lookup(family, labels, func(ls string) metric { return &Gauge{fam: family, lab: ls} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a gauge", family, labelString(labels)))
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) family() string   { return g.fam }
func (g *Gauge) labels() string   { return g.lab }
func (g *Gauge) promType() string { return "gauge" }
func (g *Gauge) write(sb *strings.Builder, family, labelStr string) {
	fmt.Fprintf(sb, "%s%s %s\n", family, labelStr, formatProm(g.Value()))
}

// --- histogram ------------------------------------------------------------

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, Prometheus "le" semantics) plus a +Inf overflow, tracking
// sum and count for averages.
type Histogram struct {
	fam     string
	lab     string
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Histogram returns the histogram for family name with the given bucket
// upper bounds (sorted ascending; +Inf is implicit) and optional labels.
// Bounds are fixed at first creation; later calls ignore the argument.
func (r *Registry) Histogram(family string, bounds []float64, labels ...string) *Histogram {
	m := r.lookup(family, labels, func(ls string) metric {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &Histogram{fam: family, lab: ls, bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a histogram", family, labelString(labels)))
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le-inclusive bucket
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) family() string   { return h.fam }
func (h *Histogram) labels() string   { return h.lab }
func (h *Histogram) promType() string { return "histogram" }
func (h *Histogram) write(sb *strings.Builder, family, labelStr string) {
	// Exposition wants cumulative bucket counts with an le label merged
	// into the series labels.
	withLe := func(le string) string {
		if labelStr == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`%s,le="%s"}`, strings.TrimSuffix(labelStr, "}"), le)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(sb, "%s_bucket%s %d\n", family, withLe(formatProm(b)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket%s %d\n", family, withLe("+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", family, labelStr, formatProm(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", family, labelStr, h.count.Load())
}

func formatProm(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm writes the whole registry in the Prometheus text exposition
// format, families sorted by name and series sorted by label set, so the
// output is deterministic and diffable.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	byFamily := make(map[string][]metric)
	for _, m := range r.metrics {
		byFamily[m.family()] = append(byFamily[m.family()], m)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	families := make([]string, 0, len(byFamily))
	for f := range byFamily {
		families = append(families, f)
	}
	sort.Strings(families)

	var sb strings.Builder
	for _, f := range families {
		series := byFamily[f]
		sort.Slice(series, func(i, j int) bool { return series[i].labels() < series[j].labels() })
		if h := help[f]; h != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f, escapeHelp(h))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f, series[0].promType())
		for _, m := range series {
			m.write(&sb, f, m.labels())
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// DumpProm writes the exposition to a file (the -metrics CLI flag).
func (r *Registry) DumpProm(path string) error {
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		return err
	}
	return writeFileAtomic(path, sb.String())
}

// writeFileAtomic writes via a temp file + rename so a crash mid-dump
// never leaves a truncated exposition behind.
func writeFileAtomic(path, content string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".obs-*")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(content); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

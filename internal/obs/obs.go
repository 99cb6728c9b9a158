// Package obs is the observability core of the reproduction: a
// lightweight, dependency-free telemetry layer carrying the paper's
// observational claims (detection coverage, false-alarm ratios after
// on-line widening, per-kernel overhead splits) out of the process as
// structured data instead of ad-hoc prints.
//
// It has three parts:
//
//   - a structured event journal: typed events with a monotonic sequence
//     number, wall-clock timestamp and key-value fields, written as JSONL
//     through a Sink;
//   - a metrics registry: counters, gauges and histograms with atomic
//     fast paths and a Prometheus-text exposition writer (metrics.go);
//   - span-style timers for phase timing (span.go).
//
// The zero value of the stack is "off": a nil *Telemetry (or the shared
// Nop instance) is disabled, every Emit is a guarded no-op, and hot
// paths that check Enabled first add no allocations — the property the
// kernel-launch benchmark in bench_test.go pins down.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Event type names: the journal's schema catalog. Emitters across the
// stack use these constants so the timeline renderer and tests can match
// on them without importing the emitting packages.
const (
	// Kernel lifecycle (internal/gpu).
	EvKernelLaunch = "kernel.launch" // kernel, grid, block, threads
	EvKernelRetire = "kernel.retire" // kernel, status, cycles, loop_cycles, loads, stores, dur_ns

	// Detection (internal/core/hrt).
	EvAlarm = "detector.alarm" // detector, name, kind, value | count, expected

	// Guardian / recovery (internal/guardian), one event per Figure 11
	// state transition.
	EvGuardianRun     = "guardian.execution"       // attempt, device, status, sdc, alarms, cycles
	EvDiagnosis       = "guardian.diagnosis"       // diagnosis, executions, false_alarm, disabled
	EvBIST            = "guardian.bist"            // device, pass
	EvDeviceDisable   = "guardian.device_disable"  // device, backoff
	EvDeviceReenable  = "guardian.device_reenable" // device
	EvBackoff         = "guardian.backoff"         // device, backoff (failed retest, Tbackoff doubled)
	EvAlpha           = "guardian.alpha"           // alpha, direction, fp_ratio
	EvRangeWiden      = "guardian.range_widen"     // detector, value (on-line learning absorbed a value)
	EvCheckpointStore = "guardian.checkpoint"      // words

	// Campaign progress (internal/harness).
	EvCampaignStart    = "campaign.start"    // program, injections, mode
	EvCampaignProgress = "campaign.progress" // program, done, total
	EvCampaignDone     = "campaign.done"     // program, outcome tallies, coverage

	// Durable campaign engine (internal/harness campaign store + watchdog).
	EvCampaignResume    = "campaign.resume"        // program, completed, remaining, shard, shards
	EvCampaignWatchdog  = "campaign.watchdog_kill" // program, id, timeout_ms
	EvCampaignInterrupt = "campaign.interrupt"     // program, completed, remaining (store flushed, run resumable)

	// Process-isolated executor (internal/guardian/procexec).
	EvWorkerSpawn    = "worker.spawn"    // pid, pgid, spawn_seq, argv0
	EvWorkerCrash    = "worker.crash"    // exit, signal, reason
	EvWorkerHang     = "worker.hang"     // heartbeat_miss, reason
	EvWorkerRestart  = "worker.restart"  // id, attempt, backoff_ms
	EvWorkerFallback = "worker.fallback" // program, reason (spawn failed; ran in-process)
)

// fieldKind discriminates the Field payload.
type fieldKind uint8

const (
	kindStr fieldKind = iota
	kindInt
	kindFloat
	kindBool
)

// Field is one key-value pair attached to an Event. Fields are plain
// values (no interfaces, no reflection) so building them never
// allocates beyond the containing slice.
type Field struct {
	Key  string
	kind fieldKind
	str  string
	num  float64
	i    int64
}

// Str builds a string field.
func Str(k, v string) Field { return Field{Key: k, kind: kindStr, str: v} }

// Int builds an integer field.
func Int(k string, v int64) Field { return Field{Key: k, kind: kindInt, i: v} }

// Float builds a float field.
func Float(k string, v float64) Field { return Field{Key: k, kind: kindFloat, num: v} }

// Bool builds a boolean field.
func Bool(k string, v bool) Field {
	f := Field{Key: k, kind: kindBool}
	if v {
		f.i = 1
	}
	return f
}

// Value returns the field's payload as an any (for tests and renderers;
// not used on hot paths).
func (f Field) Value() any {
	switch f.kind {
	case kindStr:
		return f.str
	case kindInt:
		return f.i
	case kindFloat:
		return f.num
	default:
		return f.i != 0
	}
}

// Event is one journal entry.
type Event struct {
	Seq    uint64
	Wall   time.Time
	Type   string
	Fields []Field
}

// AppendJSON renders the event as one flat JSON object (fields are
// top-level keys next to seq/ts/type, which keeps the JSONL greppable).
// The journal sink and the event-feed endpoint share this encoder, so a
// live feed is byte-identical to the file it mirrors.
func (e *Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"ts":"`...)
	dst = e.Wall.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","type":`...)
	dst = appendJSONString(dst, e.Type)
	for _, f := range e.Fields {
		dst = append(dst, ',')
		dst = appendJSONString(dst, f.Key)
		dst = append(dst, ':')
		switch f.kind {
		case kindStr:
			dst = appendJSONString(dst, f.str)
		case kindInt:
			dst = strconv.AppendInt(dst, f.i, 10)
		case kindFloat:
			dst = appendJSONFloat(dst, f.num)
		case kindBool:
			dst = strconv.AppendBool(dst, f.i != 0)
		}
	}
	return append(dst, '}')
}

func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if r < 0x20 {
				dst = append(dst, fmt.Sprintf(`\u%04x`, r)...)
			} else {
				dst = append(dst, string(r)...)
			}
		}
	}
	return append(dst, '"')
}

// appendJSONFloat renders a float as valid JSON (NaN and infinities have
// no JSON encoding; they become null).
func appendJSONFloat(dst []byte, v float64) []byte {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// Sink consumes journal events. Implementations must be safe for
// concurrent Emit calls. Emit runs under the emitting Telemetry's lock
// (that is what keeps a sink's events in Seq order), so it must not emit
// through that Telemetry.
type Sink interface {
	Emit(e Event)
	Close() error
}

// NopSink drops every event.
type NopSink struct{}

// Emit drops the event.
func (NopSink) Emit(Event) {}

// Close does nothing.
func (NopSink) Close() error { return nil }

// Telemetry ties a journal sink and a metrics registry together and
// hands out monotonic sequence numbers. A nil *Telemetry is valid and
// disabled; use Nop() when a non-nil disabled instance is clearer.
type Telemetry struct {
	sink    Sink
	reg     *Registry
	clock   func() time.Time
	enabled bool

	// mu makes stamping a sequence number and delivering the event one
	// step, so concurrent emitters reach the sink in Seq order.
	mu  sync.Mutex
	seq uint64
}

// nop is the shared disabled instance; its registry still works (so code
// holding metric handles from a disabled telemetry never nil-checks) but
// nothing reads it.
var nop = &Telemetry{sink: NopSink{}, reg: NewRegistry(), clock: time.Now}

// Nop returns the shared disabled telemetry.
func Nop() *Telemetry { return nop }

// New builds an enabled telemetry writing events to sink. A nil sink
// discards events but keeps metrics collection on — the -metrics-only
// CLI configuration.
func New(sink Sink) *Telemetry {
	if sink == nil {
		sink = NopSink{}
	}
	return &Telemetry{sink: sink, reg: NewRegistry(), clock: time.Now, enabled: true}
}

// SetClock replaces the wall-clock source (deterministic tests).
func (t *Telemetry) SetClock(clock func() time.Time) { t.clock = clock }

// Enabled reports whether anyone is listening. Hot paths check it before
// building fields, which keeps the disabled path allocation-free.
func (t *Telemetry) Enabled() bool { return t != nil && t.enabled }

// Metrics returns the registry (never nil, even on nil/disabled
// telemetry, so metric handles can be resolved unconditionally at setup
// time).
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nop.reg
	}
	return t.reg
}

// Emit journals one event. Disabled telemetry drops it.
func (t *Telemetry) Emit(typ string, fields ...Field) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.seq++
	t.sink.Emit(Event{Seq: t.seq, Wall: t.clock(), Type: typ, Fields: fields})
	t.mu.Unlock()
}

// Close flushes and closes the sink.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	return t.sink.Close()
}

// --- sinks ----------------------------------------------------------------

// JournalSink writes events as JSONL through a buffered writer.
type JournalSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	buf []byte
}

// NewJournalSink wraps an io.Writer. If w is also an io.Closer it is
// closed by Close.
func NewJournalSink(w io.Writer) *JournalSink {
	s := &JournalSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// OpenJournal creates (truncates) a JSONL journal file.
func OpenJournal(path string) (*JournalSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	return NewJournalSink(f), nil
}

// Emit writes one JSONL line.
func (s *JournalSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
}

// Close flushes the buffer and closes the underlying file, if any.
func (s *JournalSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// MemSink collects events in memory (tests, in-process consumers).
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

// Close does nothing.
func (s *MemSink) Close() error { return nil }

// Events returns a copy of the collected events.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Types returns the event type names in emission order (sequence-number
// order, which tests assert against).
func (s *MemSink) Types() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.events))
	for i, e := range s.events {
		out[i] = e.Type
	}
	return out
}

// --- journal reading ------------------------------------------------------

// DecodedEvent is one journal entry read back from JSONL; Fields holds
// every key other than seq/ts/type with JSON-decoded values (strings,
// float64, bool).
type DecodedEvent struct {
	Seq    uint64
	Wall   time.Time
	Type   string
	Fields map[string]any
}

// Field returns a named field ("" when absent) formatted as a string.
func (e *DecodedEvent) Field(key string) string {
	v, ok := e.Fields[key]
	if !ok {
		return ""
	}
	switch x := v.(type) {
	case string:
		return x
	case float64:
		// JSON numbers decode as float64; render integral values as
		// integers so counts and IDs read naturally.
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(x)
	}
}

// ReadJournal decodes a JSONL event journal. Malformed lines abort with
// an error naming the line number.
func ReadJournal(r io.Reader) ([]DecodedEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []DecodedEvent
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		var e DecodedEvent
		if v, ok := m["seq"].(float64); ok {
			e.Seq = uint64(v)
		}
		if v, ok := m["ts"].(string); ok {
			if ts, err := time.Parse(time.RFC3339Nano, v); err == nil {
				e.Wall = ts
			}
		}
		e.Type, _ = m["type"].(string)
		delete(m, "seq")
		delete(m, "ts")
		delete(m, "type")
		e.Fields = m
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: journal: %w", err)
	}
	return out, nil
}

// LoadJournal reads a JSONL journal file.
func LoadJournal(path string) ([]DecodedEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: load journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}

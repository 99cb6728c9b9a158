package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a clock that advances by step on every call.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestEventSequenceMonotonic(t *testing.T) {
	sink := &MemSink{}
	tel := New(sink)
	tel.Emit(EvKernelLaunch, Str("kernel", "a"))
	tel.Emit(EvAlarm, Int("detector", 3))
	tel.Emit(EvDiagnosis, Str("diagnosis", "clean"))

	events := sink.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	want := []string{EvKernelLaunch, EvAlarm, EvDiagnosis}
	got := sink.Types()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestConcurrentEmitUniqueSeqs(t *testing.T) {
	sink := &MemSink{}
	tel := New(sink)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tel.Emit(EvAlarm, Int("detector", int64(i)))
			}
		}()
	}
	wg.Wait()
	events := sink.Events()
	if len(events) != workers*per {
		t.Fatalf("got %d events, want %d", len(events), workers*per)
	}
	seen := make(map[uint64]bool, len(events))
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence number %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestConcurrentEmitDeliversInSeqOrder pins that a sequence number is
// stamped and delivered in one step: concurrent emitters must reach the
// journal and every live subscriber in strictly increasing Seq, which is
// what an event-feed reader checks.
func TestConcurrentEmitDeliversInSeqOrder(t *testing.T) {
	const workers, per = 8, 20000
	journal := &MemSink{}
	b := NewBroadcaster(journal)
	sub := b.Subscribe(workers * per)
	tel := New(b)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tel.Emit(EvAlarm)
			}
		}()
	}
	wg.Wait()
	tel.Close() //nolint:errcheck
	check := func(who string, seqs []uint64) {
		t.Helper()
		if len(seqs) != workers*per {
			t.Fatalf("%s saw %d events, want %d", who, len(seqs), workers*per)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("%s: sequence regressed at event %d: %d after %d", who, i, seqs[i], seqs[i-1])
			}
		}
	}
	var live []uint64
	for e := range sub.Events() {
		live = append(live, e.Seq)
	}
	check("subscriber", live)
	var logged []uint64
	for _, e := range journal.Events() {
		logged = append(logged, e.Seq)
	}
	check("journal", logged)
}

func TestFieldValues(t *testing.T) {
	cases := []struct {
		name string
		f    Field
		want any
	}{
		{"str", Str("k", "v"), "v"},
		{"int", Int("k", -7), int64(-7)},
		{"float", Float("k", 2.5), 2.5},
		{"bool-true", Bool("k", true), true},
		{"bool-false", Bool("k", false), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.f.Value(); got != tc.want {
				t.Fatalf("Value() = %v (%T), want %v (%T)", got, got, tc.want, tc.want)
			}
		})
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tel := New(NewJournalSink(&buf))
	tel.SetClock(fakeClock(time.Unix(1000, 0).UTC(), time.Millisecond))
	tel.Emit(EvKernelLaunch,
		Str("kernel", "cp"), Int("grid", 8), Float("cycles", 1.5), Bool("sdc", true))
	tel.Emit(EvAlarm, Str("name", `quo"te\back`), Int("detector", 2))
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Seq != 1 || e.Type != EvKernelLaunch {
		t.Fatalf("decoded seq=%d type=%q", e.Seq, e.Type)
	}
	if got := e.Field("kernel"); got != "cp" {
		t.Fatalf("kernel = %q", got)
	}
	if got := e.Field("grid"); got != "8" {
		t.Fatalf("grid = %q (integral numbers must render without exponent)", got)
	}
	if got := e.Field("cycles"); got != "1.5" {
		t.Fatalf("cycles = %q", got)
	}
	if got := e.Field("sdc"); got != "true" {
		t.Fatalf("sdc = %q", got)
	}
	if got := e.Field("absent"); got != "" {
		t.Fatalf("absent field = %q, want empty", got)
	}
	if got := events[1].Field("name"); got != `quo"te\back` {
		t.Fatalf("escaped string round-trip = %q", got)
	}
	if !events[1].Wall.After(events[0].Wall) {
		t.Fatalf("timestamps not ordered: %v !< %v", events[0].Wall, events[1].Wall)
	}
}

func TestReadJournalRejectsMalformedLine(t *testing.T) {
	if _, err := ReadJournal(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed line must error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name the line: %v", err)
	}
}

func TestNopTelemetryDisabled(t *testing.T) {
	tel := Nop()
	if tel.Enabled() {
		t.Fatal("Nop() must be disabled")
	}
	tel.Emit(EvAlarm, Int("detector", 1)) // must not panic or record
	if tel.Metrics() == nil {
		t.Fatal("disabled telemetry must still hand out a registry")
	}
	if sp := tel.Span(EvKernelRetire); sp.Active() {
		t.Fatal("disabled telemetry must return an inert span")
	}

	var nilTel *Telemetry
	if nilTel.Enabled() {
		t.Fatal("nil telemetry must be disabled")
	}
	nilTel.Emit(EvAlarm) // nil-safe
	if nilTel.Metrics() == nil {
		t.Fatal("nil telemetry must still hand out a registry")
	}
	if err := nilTel.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsOnlyMode(t *testing.T) {
	// New(nil) is the -metrics-without--trace configuration: events are
	// discarded but collection stays on.
	tel := New(nil)
	if !tel.Enabled() {
		t.Fatal("New(nil) must be enabled")
	}
	tel.Emit(EvAlarm, Int("detector", 1)) // discarded, no panic
	tel.Metrics().Counter("x_total").Inc()
	if got := tel.Metrics().Counter("x_total").Value(); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestSpanDuration(t *testing.T) {
	sink := &MemSink{}
	tel := New(sink)
	tel.SetClock(fakeClock(time.Unix(0, 0), 5*time.Millisecond))

	sp := tel.Span(EvKernelRetire) // clock tick 1
	if !sp.Active() {
		t.Fatal("span on enabled telemetry must be active")
	}
	sp.End(Str("kernel", "k")) // ticks 2 (dur) and 3 (event timestamp)

	events := sink.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	var dur int64 = -1
	for _, f := range events[0].Fields {
		if f.Key == "dur_ns" {
			dur = f.Value().(int64)
		}
	}
	if dur != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("dur_ns = %d, want %d", dur, (5 * time.Millisecond).Nanoseconds())
	}

	var zero Span
	zero.End() // inert, must not panic
	if zero.Elapsed() != 0 {
		t.Fatal("inert span must report zero elapsed")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		value  float64
		bucket int // index into bounds {1, 10, 100}; 3 is +Inf overflow
	}{
		{"below-first", 0.5, 0},
		{"on-first-bound", 1, 0}, // le semantics: v == bound lands in that bucket
		{"between", 1.5, 1},
		{"on-second-bound", 10, 1},
		{"on-last-bound", 100, 2},
		{"overflow", 100.5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			// Bounds arrive unsorted; the registry must sort them.
			h := r.Histogram("h", []float64{100, 1, 10})
			h.Observe(tc.value)
			for i := 0; i <= 3; i++ {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if got := h.BucketCount(i); got != want {
					t.Fatalf("bucket %d = %d, want %d", i, got, want)
				}
			}
			if h.Count() != 1 || h.Sum() != tc.value {
				t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
			}
		})
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Lookup on every iteration exercises the registry mutex
				// alongside the atomic increment (run with -race).
				r.Counter("c_total", "label", "x").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{10}).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "label", "x").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Fatalf("gauge = %g, want %d", got, workers*per)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("b_total", "help text")
	r.Counter("b_total", "k", "v2").Add(2)
	r.Counter("b_total", "k", "v1").Add(1)
	r.Gauge("a_gauge").Set(1.5)
	h := r.Histogram("c_hist", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_gauge gauge
a_gauge 1.5
# HELP b_total help text
# TYPE b_total counter
b_total{k="v1"} 1
b_total{k="v2"} 2
# TYPE c_hist histogram
c_hist_bucket{le="1"} 1
c_hist_bucket{le="10"} 2
c_hist_bucket{le="+Inf"} 3
c_hist_sum 55.5
c_hist_count 3
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestDumpPromAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.prom")
	r := NewRegistry()
	r.Counter("x_total").Inc()
	if err := r.DumpProm(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "x_total 1") {
		t.Fatalf("dump content: %q", data)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want only the dump", len(entries))
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a counter name as a gauge must panic")
		}
	}()
	r.Gauge("m")
}

func TestOpenJournalAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	sink, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tel := New(sink)
	tel.Emit(EvCampaignStart, Str("program", "CP"), Int("injections", 12))
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != EvCampaignStart || events[0].Field("program") != "CP" {
		t.Fatalf("loaded %+v", events)
	}
}

func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	tel := New(NewJournalSink(&buf))
	tel.SetClock(fakeClock(time.Unix(0, 0).UTC(), 2*time.Millisecond))
	tel.Emit(EvKernelLaunch, Str("kernel", "cp"), Int("grid", 8))
	tel.Emit(EvAlarm, Int("detector", 0), Str("kind", "range"))
	tel.Emit(EvGuardianRun, Int("attempt", 1), Str("status", "ok"))
	tel.Emit(EvDeviceDisable, Int("device", 0), Int("backoff", 4))
	tel.Emit(EvDiagnosis, Str("diagnosis", "device-fault"))
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	WriteTimeline(&out, events)
	text := out.String()
	for _, want := range []string{
		"kernel.launch",
		"kernel=cp grid=8",
		"summary: 5 event(s)",
		"executions: 1",
		"alarms:     1",
		"devices disabled: 1 (device 0)",
		"final diagnosis: device-fault",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	WriteTimeline(&out, nil)
	if !strings.Contains(out.String(), "empty journal") {
		t.Fatalf("empty journal rendering: %q", out.String())
	}
}

// TestNopEmitAllocationFree pins the property the instrumentation relies
// on: the guarded-emit pattern used on hot paths (check Enabled before
// building any fields) performs no allocations when telemetry is off.
func TestNopEmitAllocationFree(t *testing.T) {
	tel := Nop()
	allocs := testing.AllocsPerRun(1000, func() {
		if tel.Enabled() {
			tel.Emit(EvKernelLaunch, Str("kernel", "k"))
		}
	})
	if allocs != 0 {
		t.Fatalf("guarded emit on disabled telemetry allocates %v/op", allocs)
	}
}

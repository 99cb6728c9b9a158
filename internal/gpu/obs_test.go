package gpu

import (
	"testing"

	"hauberk/internal/kir"
	"hauberk/internal/obs"
)

// obsTestKernel builds a tiny loop kernel and a ready-to-launch spec on a
// fresh device.
func obsTestKernel() (*Device, *kir.Kernel, LaunchSpec) {
	b := kir.NewBuilder("tiny")
	out := b.PtrParam("out", kir.F32)
	acc := b.Local("acc", kir.F(0))
	b.For("i", kir.I(0), kir.I(16), func(i *kir.Var) {
		b.Accum(acc, kir.ToF32(kir.V(i)))
	})
	b.Store(out, kir.I(0), kir.V(acc))
	k := b.Kernel()
	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, 4)
	return d, k, LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}}
}

func TestLaunchEmitsTelemetry(t *testing.T) {
	d, k, spec := obsTestKernel()
	sink := &obs.MemSink{}
	tel := obs.New(sink)
	spec.Obs = tel

	if _, err := d.Launch(k, spec); err != nil {
		t.Fatal(err)
	}

	types := sink.Types()
	if len(types) != 2 || types[0] != obs.EvKernelLaunch || types[1] != obs.EvKernelRetire {
		t.Fatalf("event types = %v, want [kernel.launch kernel.retire]", types)
	}
	events := sink.Events()
	fields := map[string]any{}
	for _, f := range events[1].Fields {
		fields[f.Key] = f.Value()
	}
	if fields["kernel"] != "tiny" || fields["status"] != "ok" {
		t.Fatalf("retire fields = %v", fields)
	}
	cycles, ok := fields["cycles"].(float64)
	if !ok || cycles <= 0 {
		t.Fatalf("retire cycles = %v", fields["cycles"])
	}

	m := tel.Metrics()
	if got := m.Counter("hauberk_kernel_launches_total", "kernel", "tiny", "status", "ok").Value(); got != 1 {
		t.Fatalf("launch counter = %d, want 1", got)
	}
	if got := m.Histogram("hauberk_kernel_cycles", kernelCycleBuckets, "kernel", "tiny").Sum(); got != cycles {
		t.Fatalf("cycle histogram sum = %v, want the one retired launch's %v cycles", got, cycles)
	}
	// One engine, one mode: external readers (bench/trace.go) compute the
	// serial share from this counter and must not see 0/0.
	if got := m.Counter("hauberk_launch_modes_total", "kernel", "tiny", "mode", "serial").Value(); got != 1 {
		t.Fatalf("launch mode counter = %d, want 1 launch in mode serial", got)
	}
}

func TestLaunchTelemetryClassifiesErrors(t *testing.T) {
	d, k, spec := obsTestKernel()
	sink := &obs.MemSink{}
	tel := obs.New(sink)
	spec.Obs = tel
	d.Disabled = true

	if _, err := d.Launch(k, spec); err == nil {
		t.Fatal("disabled device must fail the launch")
	}
	events := sink.Events()
	status := ""
	for _, f := range events[len(events)-1].Fields {
		if f.Key == "status" {
			status = f.Value().(string)
		}
	}
	if status != "launch-error" {
		t.Fatalf("status = %q, want launch-error", status)
	}
	if got := tel.Metrics().Counter("hauberk_kernel_launches_total", "kernel", "tiny", "status", "launch-error").Value(); got != 1 {
		t.Fatalf("error-status counter = %d, want 1", got)
	}
}

// recordingHooks records which callbacks were forwarded through the
// counting wrapper.
type recordingHooks struct {
	NopHooks
	probes, ranges int
}

func (r *recordingHooks) Probe(tc ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	r.probes++
	return val, false
}

func (r *recordingHooks) RangeCheck(ThreadCtx, int, float64) { r.ranges++ }

func TestCountingHooksCountsAndForwards(t *testing.T) {
	inner := &recordingHooks{}
	c := NewCountingHooks(inner)
	tc := ThreadCtx{}

	c.Probe(tc, 3, nil, kir.HWALU, 7)
	c.Probe(tc, 3, nil, kir.HWALU, 7)
	c.Probe(tc, 0, nil, kir.HWALU, 7)
	c.CountExec(tc, 1)
	c.RangeCheck(tc, 0, 1.5)
	c.EqualCheck(tc, 0, 4, 4)
	c.ProfileSample(tc, 0, 2.5)
	c.SetSDC(tc, 0, kir.DetectRange)

	counts := c.Counts()
	if counts.Probe != 3 || counts.CountExec != 1 || counts.RangeCheck != 1 ||
		counts.EqualCheck != 1 || counts.ProfileSample != 1 || counts.SetSDC != 1 {
		t.Fatalf("counts = %+v", counts)
	}
	if counts.Total() != 8 {
		t.Fatalf("total = %d, want 8", counts.Total())
	}
	if len(counts.PerSiteProbe) != 4 || counts.PerSiteProbe[3] != 2 || counts.PerSiteProbe[0] != 1 {
		t.Fatalf("per-site = %v", counts.PerSiteProbe)
	}
	if inner.probes != 3 || inner.ranges != 1 {
		t.Fatalf("inner hooks not forwarded: %+v", inner)
	}

	tel := obs.New(nil)
	c.Publish(tel, "k")
	m := tel.Metrics()
	if got := m.Counter("hauberk_hook_calls_total", "kernel", "k", "hook", "probe").Value(); got != 3 {
		t.Fatalf("probe counter = %d, want 3", got)
	}
	if got := m.Counter("hauberk_probe_site_hits_total", "kernel", "k", "site", "3").Value(); got != 2 {
		t.Fatalf("site-3 counter = %d, want 2", got)
	}

	// Publishing to disabled telemetry is a no-op, not a panic.
	c.Publish(obs.Nop(), "k")
	c.Publish(nil, "k")
}

// TestNopTelemetryLaunchAllocationFree asserts the acceptance property:
// passing a disabled telemetry through LaunchSpec adds zero allocations
// per launch compared to no telemetry at all.
func TestNopTelemetryLaunchAllocationFree(t *testing.T) {
	d, k, spec := obsTestKernel()
	bare := spec
	withNop := spec
	withNop.Obs = obs.Nop()

	base := testing.AllocsPerRun(20, func() {
		if _, err := d.Launch(k, bare); err != nil {
			t.Fatal(err)
		}
	})
	instrumented := testing.AllocsPerRun(20, func() {
		if _, err := d.Launch(k, withNop); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		return // pooled register files are dropped at random; see raceEnabled
	}
	if instrumented != base {
		t.Fatalf("nop telemetry changed allocations per launch: %v -> %v", base, instrumented)
	}
}

// BenchmarkNopTelemetryLaunch measures the telemetry-off launch path (the
// zero-overhead claim the launch.go instrumentation makes). Compare against
// BenchmarkEnabledTelemetryLaunch with -benchmem: allocs/op must match the
// un-instrumented baseline.
func BenchmarkNopTelemetryLaunch(b *testing.B) {
	d, k, spec := obsTestKernel()
	spec.Obs = obs.Nop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnabledTelemetryLaunch is the same launch with an enabled
// telemetry discarding events: the cost ceiling of full instrumentation.
func BenchmarkEnabledTelemetryLaunch(b *testing.B) {
	d, k, spec := obsTestKernel()
	spec.Obs = obs.New(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			b.Fatal(err)
		}
	}
}

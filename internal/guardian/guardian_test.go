package guardian

import (
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

func testPool(n int, healthy func(*gpu.Device) bool) (*DevicePool, []*gpu.Device) {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.DefaultConfig())
	}
	return NewDevicePool(devs, healthy, 2), devs
}

// scripted builds a RunFn that replays outcomes in order (repeating the
// last one forever).
func scripted(outs ...*RunOutcome) RunFn {
	i := 0
	return func(*gpu.Device) *RunOutcome {
		o := outs[i]
		if i < len(outs)-1 {
			i++
		}
		return o
	}
}

func ok(words ...uint32) *RunOutcome { return &RunOutcome{Output: words} }

func alarmed(words ...uint32) *RunOutcome {
	return &RunOutcome{
		Output: words,
		SDC:    true,
		Alarms: []hrt.Alarm{{Detector: 1, Kind: kir.DetectRange, Value: 42}},
	}
}

func crashed() *RunOutcome {
	return &RunOutcome{Err: &gpu.CrashError{Reason: "test"}}
}

func TestDiagnosisClean(t *testing.T) {
	pool, _ := testPool(1, nil)
	rep, err := Supervise(Config{Pool: pool}, scripted(ok(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagClean || rep.Executions != 1 {
		t.Fatalf("got %s after %d", rep.Diagnosis, rep.Executions)
	}
}

func TestDiagnosisFalseAlarm(t *testing.T) {
	// Both executions alarm with identical outputs: false positive, and
	// the on-line learning callback receives the alarms.
	pool, _ := testPool(1, nil)
	var learned []hrt.Alarm
	cfg := Config{Pool: pool, OnFalseAlarm: func(a []hrt.Alarm) { learned = a }}
	rep, err := Supervise(cfg, scripted(alarmed(7, 7), alarmed(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagFalseAlarm || !rep.FalseAlarm {
		t.Fatalf("got %s", rep.Diagnosis)
	}
	if len(learned) != 1 || learned[0].Value != 42 {
		t.Fatalf("false-alarm values not delivered for learning: %v", learned)
	}
}

func TestDiagnosisTransientSDC(t *testing.T) {
	// First run alarms, re-execution is clean: take the re-execution.
	pool, _ := testPool(1, nil)
	rep, err := Supervise(Config{Pool: pool}, scripted(alarmed(9), ok(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagTransient {
		t.Fatalf("got %s", rep.Diagnosis)
	}
	if rep.Final.Output[0] != 1 {
		t.Fatalf("must take the re-execution output")
	}
}

func TestDiagnosisDeviceFaultMigrates(t *testing.T) {
	// Alarms with differing outputs + failing BIST: disable and migrate.
	healthy := map[*gpu.Device]bool{}
	pool, devs := testPool(2, func(d *gpu.Device) bool { return healthy[d] })
	healthy[devs[1]] = true
	calls := 0
	run := func(dev *gpu.Device) *RunOutcome {
		calls++
		if dev == devs[0] {
			return alarmed(uint32(calls)) // different output every run
		}
		return ok(5)
	}
	rep, err := Supervise(Config{Pool: pool}, run)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagDeviceFault {
		t.Fatalf("got %s", rep.Diagnosis)
	}
	if len(rep.DisabledDevices) != 1 || rep.DisabledDevices[0] != 0 {
		t.Fatalf("device 0 should be disabled: %v", rep.DisabledDevices)
	}
	if rep.Final.Output[0] != 5 {
		t.Fatalf("final output must come from the healthy device")
	}
}

func TestDiagnosisSoftwareError(t *testing.T) {
	// Alarms with differing outputs but the device passes BIST:
	// nondeterministic or buggy software is reported.
	pool, _ := testPool(1, func(*gpu.Device) bool { return true })
	i := uint32(0)
	run := func(*gpu.Device) *RunOutcome {
		i++
		return alarmed(i)
	}
	rep, err := Supervise(Config{Pool: pool}, run)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagSoftwareError {
		t.Fatalf("got %s", rep.Diagnosis)
	}
}

func TestRepeatedCrashMigration(t *testing.T) {
	healthy := map[int]bool{1: true}
	devices := []*gpu.Device{gpu.New(gpu.DefaultConfig()), gpu.New(gpu.DefaultConfig())}
	pool := NewDevicePool(devices, func(d *gpu.Device) bool {
		return d == devices[1] && healthy[1]
	}, 2)
	run := func(dev *gpu.Device) *RunOutcome {
		if dev == devices[0] {
			return crashed()
		}
		return ok(3)
	}
	rep, err := Supervise(Config{Pool: pool}, run)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagDeviceFault {
		t.Fatalf("got %s", rep.Diagnosis)
	}
	if rep.Executions < 3 {
		t.Fatalf("expected restarts before migration, got %d executions", rep.Executions)
	}
	if rep.Final == nil || rep.Final.Output[0] != 3 {
		t.Fatalf("final output wrong")
	}
}

func TestGaveUpWhenNoHealthyDevices(t *testing.T) {
	pool, _ := testPool(1, func(*gpu.Device) bool { return false })
	rep, err := Supervise(Config{Pool: pool}, scripted(crashed()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diagnosis != DiagGaveUp {
		t.Fatalf("got %s", rep.Diagnosis)
	}
}

func TestPoolBackoffDoublesAndReenables(t *testing.T) {
	attempts := 0
	healAfter := 3
	devices := []*gpu.Device{gpu.New(gpu.DefaultConfig())}
	pool := NewDevicePool(devices, func(*gpu.Device) bool {
		attempts++
		return attempts > healAfter
	}, 2)
	pool.Disable(0)
	if pool.Enabled() != 0 {
		t.Fatalf("device not disabled")
	}
	if pool.Backoff(0) != 2 {
		t.Fatalf("initial backoff = %d, want 2", pool.Backoff(0))
	}
	// Tick until the first retest fires (tick 2): still faulty -> backoff
	// doubles to 4.
	pool.Tick()
	pool.Tick()
	if got := pool.Backoff(0); got != 4 {
		t.Fatalf("backoff after first failed retest = %d, want 4", got)
	}
	// Retests at ticks 6 and 14 still fail (backoff 8, then 16); the
	// fourth retest at tick 30 passes and re-enables the device.
	for i := 0; i < 28; i++ {
		pool.Tick()
	}
	if pool.Enabled() != 1 {
		t.Fatalf("device should be re-enabled once the intermittent fault cleared (attempts=%d)", attempts)
	}
}

func TestSuperviseRequiresPool(t *testing.T) {
	if _, err := Supervise(Config{}, scripted(ok())); err == nil {
		t.Fatalf("want error without a pool")
	}
}

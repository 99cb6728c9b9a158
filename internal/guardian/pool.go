package guardian

import (
	"sync"

	"hauberk/internal/gpu"
	"hauberk/internal/obs"
)

// DevicePool manages the node's GPU devices for the recovery engine
// (Section VI(ii)(c)): a faulty device is disabled and the program
// migrates to another; a daemon periodically re-runs the self test on
// disabled devices with an exponentially growing delay (Tbackoff) and
// re-enables devices whose intermittent fault has cleared.
//
// Time is virtual: the pool advances on Tick calls, so experiments are
// deterministic.
type DevicePool struct {
	mu      sync.Mutex
	devices []*pooledDevice
	// selfTest validates one device (the paper's BIST-like program that
	// produces multiple sets of output data by exercising various parts
	// of the hardware). It must be side-effect free on program state.
	selfTest func(*gpu.Device) bool
	// policy is the Tbackoff schedule, in ticks.
	policy BackoffPolicy
	now    int64

	// Obs, when enabled, journals the back-off daemon's transitions:
	// guardian.backoff on a failed retest (Tbackoff doubled) and
	// guardian.device_reenable when a device returns to service. Set it
	// before the pool is shared.
	Obs *obs.Telemetry
}

type pooledDevice struct {
	dev      *gpu.Device
	disabled bool
	backoff  int64 // current Tbackoff
	retryAt  int64 // next self-test time
}

// NewDevicePool wraps the devices with the given self test. backoffInit
// seeds the doubling Tbackoff schedule (BackoffPolicy).
func NewDevicePool(devices []*gpu.Device, selfTest func(*gpu.Device) bool, backoffInit int64) *DevicePool {
	p := &DevicePool{selfTest: selfTest, policy: BackoffPolicy{Init: backoffInit, Factor: 2}}
	for _, d := range devices {
		p.devices = append(p.devices, &pooledDevice{dev: d})
	}
	return p
}

// Acquire returns the first enabled device, or (-1, nil).
func (p *DevicePool) Acquire() (int, *gpu.Device) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pd := range p.devices {
		if !pd.disabled {
			return i, pd.dev
		}
	}
	return -1, nil
}

// Disable takes a device out of service and schedules its first back-off
// retest.
func (p *DevicePool) Disable(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pd := p.devices[i]
	pd.disabled = true
	pd.dev.Disabled = true
	pd.backoff = p.policy.First()
	pd.retryAt = p.now + pd.backoff
}

// SelfTest runs the BIST program on device i and reports health.
func (p *DevicePool) SelfTest(i int) bool {
	p.mu.Lock()
	pd := p.devices[i]
	test := p.selfTest
	p.mu.Unlock()
	if test == nil {
		return true
	}
	// The self test needs the device temporarily launchable.
	wasDisabled := pd.dev.Disabled
	pd.dev.Disabled = false
	ok := test(pd.dev)
	pd.dev.Disabled = wasDisabled
	return ok
}

// Tick advances virtual time by one unit and runs the back-off daemon:
// disabled devices whose retry time arrived are re-tested; on a pass the
// device is re-enabled, on a fail Tbackoff doubles (Section VI(ii)(c)).
func (p *DevicePool) Tick() {
	p.mu.Lock()
	p.now++
	due := make([]int, 0, len(p.devices))
	for i, pd := range p.devices {
		if pd.disabled && p.now >= pd.retryAt {
			due = append(due, i)
		}
	}
	p.mu.Unlock()

	for _, i := range due {
		if p.SelfTest(i) {
			p.mu.Lock()
			p.devices[i].disabled = false
			p.devices[i].dev.Disabled = false
			p.mu.Unlock()
			if p.Obs.Enabled() {
				p.Obs.Emit(obs.EvDeviceReenable, obs.Int("device", int64(i)))
				p.Obs.Metrics().Counter("hauberk_guardian_device_reenables_total").Inc()
			}
		} else {
			p.mu.Lock()
			pd := p.devices[i]
			pd.backoff = p.policy.Next(pd.backoff)
			pd.retryAt = p.now + pd.backoff
			backoff := pd.backoff
			p.mu.Unlock()
			if p.Obs.Enabled() {
				p.Obs.Emit(obs.EvBackoff,
					obs.Int("device", int64(i)), obs.Int("backoff", backoff))
			}
		}
	}
}

// Enabled counts devices currently in service.
func (p *DevicePool) Enabled() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pd := range p.devices {
		if !pd.disabled {
			n++
		}
	}
	return n
}

// Backoff returns device i's current Tbackoff (0 when enabled).
func (p *DevicePool) Backoff(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.devices[i].disabled {
		return 0
	}
	return p.devices[i].backoff
}

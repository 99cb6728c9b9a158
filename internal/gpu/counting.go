package gpu

import (
	"strconv"

	"hauberk/internal/kir"
	"hauberk/internal/obs"
)

// HookCounts tallies intrinsic-hook activity for one (or a sequence of)
// launches: how many times each Hooks callback fired, plus per-FI-site
// probe hit counts. It is the overhead-accounting signal the Hooks
// interface itself cannot expose (the interpreter calls straight through
// to the implementation).
type HookCounts struct {
	Probe, CountExec, RangeCheck, EqualCheck, ProfileSample, SetSDC int64
	// PerSiteProbe counts probe hits per FI site ID (grown on demand).
	PerSiteProbe []int64
}

// CountingHooks wraps another Hooks implementation and counts every
// callback before forwarding it. Like any Hooks value it is driven from
// a single launch goroutine; share one wrapper across sequential
// launches to accumulate, but not across concurrent ones.
type CountingHooks struct {
	inner  Hooks
	counts HookCounts
}

var _ Hooks = (*CountingHooks)(nil)

// NewCountingHooks wraps inner (which may be nil to count an otherwise
// uninstrumented launch's probe sites).
func NewCountingHooks(inner Hooks) *CountingHooks {
	if inner == nil {
		inner = NopHooks{}
	}
	return &CountingHooks{inner: inner}
}

// Counts returns a copy of the accumulated tallies.
func (c *CountingHooks) Counts() HookCounts {
	out := c.counts
	out.PerSiteProbe = append([]int64(nil), c.counts.PerSiteProbe...)
	return out
}

// Publish adds the accumulated tallies to the telemetry's metric
// registry: one hauberk_hook_calls_total counter per hook kind and a
// hauberk_probe_site_hits_total counter per FI site, all labelled with
// the kernel name. Call it after the launch(es) complete.
func (c *CountingHooks) Publish(t *obs.Telemetry, kernel string) {
	if !t.Enabled() {
		return
	}
	m := t.Metrics()
	m.Help("hauberk_hook_calls_total", "intrinsic hook invocations by kind")
	add := func(hook string, n int64) {
		if n > 0 {
			m.Counter("hauberk_hook_calls_total", "kernel", kernel, "hook", hook).Add(n)
		}
	}
	add("probe", c.counts.Probe)
	add("count_exec", c.counts.CountExec)
	add("range_check", c.counts.RangeCheck)
	add("equal_check", c.counts.EqualCheck)
	add("profile_sample", c.counts.ProfileSample)
	add("set_sdc", c.counts.SetSDC)
	for site, n := range c.counts.PerSiteProbe {
		if n > 0 {
			m.Counter("hauberk_probe_site_hits_total",
				"kernel", kernel, "site", strconv.Itoa(site)).Add(n)
		}
	}
}

// Probe counts and forwards.
func (c *CountingHooks) Probe(tc ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	c.counts.Probe++
	for len(c.counts.PerSiteProbe) <= site {
		c.counts.PerSiteProbe = append(c.counts.PerSiteProbe, 0)
	}
	c.counts.PerSiteProbe[site]++
	return c.inner.Probe(tc, site, v, hw, val)
}

// CountExec counts and forwards.
func (c *CountingHooks) CountExec(tc ThreadCtx, site int) {
	c.counts.CountExec++
	c.inner.CountExec(tc, site)
}

// RangeCheck counts and forwards.
func (c *CountingHooks) RangeCheck(tc ThreadCtx, det int, val float64) {
	c.counts.RangeCheck++
	c.inner.RangeCheck(tc, det, val)
}

// EqualCheck counts and forwards.
func (c *CountingHooks) EqualCheck(tc ThreadCtx, det int, count, expected int32) {
	c.counts.EqualCheck++
	c.inner.EqualCheck(tc, det, count, expected)
}

// ProfileSample counts and forwards.
func (c *CountingHooks) ProfileSample(tc ThreadCtx, det int, val float64) {
	c.counts.ProfileSample++
	c.inner.ProfileSample(tc, det, val)
}

// SetSDC counts and forwards.
func (c *CountingHooks) SetSDC(tc ThreadCtx, det int, kind kir.DetectKind) {
	c.counts.SetSDC++
	c.inner.SetSDC(tc, det, kind)
}

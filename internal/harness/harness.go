// Package harness orchestrates the paper's experiments end to end: golden
// runs, range profiling, performance-overhead comparisons (Figure 13),
// fault-injection campaigns with five-way outcome classification
// (Figures 1 and 14), the graphics fault study (Figure 3), value
// distributions (Figure 10), the bit-flip magnitude study (Figure 15), the
// false-positive/training study (Figure 16), and the instrumentation-time
// measurement (Section IX.D).
package harness

import (
	"fmt"
	"runtime"
	"sync"

	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/obs"
	"hauberk/internal/workloads"
)

// Variant names one protection configuration of Figure 13.
type Variant string

// Evaluation variants.
const (
	Baseline  Variant = "baseline"
	RNaive    Variant = "r-naive"
	RScatter  Variant = "r-scatter"
	HauberkNL Variant = "hauberk-nl"
	HauberkL  Variant = "hauberk-l"
	Hauberk   Variant = "hauberk"
)

// Variants lists the comparison order of Figure 13.
var Variants = []Variant{RNaive, RScatter, HauberkNL, HauberkL, Hauberk}

// Scale sizes the experiments: Full approximates the paper's campaign
// (~10,000 injections across seven programs); Quick is for tests and CI.
type Scale struct {
	// MaxSites bounds injected virtual variables per program (paper:
	// 20-50).
	MaxSites int
	// MasksPerSite is the number of random error masks per variable
	// (paper: 50, split across the bit counts).
	MasksPerSite int
	// BitCounts are the error-bit multiplicities of Figure 14.
	BitCounts []int
	// Fig15Samples is the per-cell sample count of the bit-flip study.
	Fig15Samples int
	// Fig16Repeats and Fig16Checkpoints size the false-positive study.
	Fig16Repeats     int
	Fig16Checkpoints []int
	// Workers bounds campaign parallelism; zero or negative means one
	// worker per CPU (runtime.NumCPU).
	Workers int
}

// FullScale approximates the paper's experiment sizes. Workers is left at
// the machine-sized default (one per CPU).
func FullScale() Scale {
	return Scale{
		MaxSites:         50,
		MasksPerSite:     50,
		BitCounts:        []int{1, 3, 6, 10, 15},
		Fig15Samples:     200_000,
		Fig16Repeats:     10,
		Fig16Checkpoints: []int{1, 3, 5, 7, 10, 18, 30, 50},
	}
}

// QuickScale is small enough for unit tests. Workers is left at the
// machine-sized default (one per CPU).
func QuickScale() Scale {
	return Scale{
		MaxSites:         12,
		MasksPerSite:     10,
		BitCounts:        []int{1, 6, 15},
		Fig15Samples:     5_000,
		Fig16Repeats:     3,
		Fig16Checkpoints: []int{1, 5, 10, 25},
	}
}

// TinyScale plans the smallest meaningful campaign (four injections):
// the unit of work for the hauberkd load harness, which submits
// thousands of concurrent campaigns and cares about scheduling
// throughput, not statistical power.
func TinyScale() Scale {
	return Scale{
		MaxSites:         2,
		MasksPerSite:     2,
		BitCounts:        []int{1},
		Fig15Samples:     500,
		Fig16Repeats:     1,
		Fig16Checkpoints: []int{1, 5},
	}
}

// ScaleByName resolves the CLI/API scale names. The daemon and the CLI
// share this mapping, which is one of the preconditions for their
// figure digests being byte-identical on the same submission.
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "tiny":
		return TinyScale(), true
	case "quick":
		return QuickScale(), true
	case "full":
		return FullScale(), true
	}
	return Scale{}, false
}

// Env carries shared experiment state. It caches instrumented kernels
// (instrumentation is deterministic, and kernels are read-only at launch
// time, so one instrumented kernel serves all concurrent runs).
type Env struct {
	Scale  Scale
	Config gpu.Config

	// Obs receives campaign-progress events and outcome tallies from the
	// experiment drivers. Defaults to the disabled telemetry; set it (or
	// call WithObs) before launching experiments to collect a journal.
	Obs *obs.Telemetry

	cache *instCache
}

// instCache is the shared instrumented-kernel cache. It lives behind a
// pointer so Clone-derived environments (one per daemon campaign, each
// with its own telemetry) share one cache: instrumentation is
// deterministic and its results read-only, so reuse across concurrent
// campaigns is safe and keeps per-submission setup cheap.
type instCache struct {
	mu sync.Mutex
	m  map[string]*translate.Result
}

// NewEnv builds an environment with the default simulated device.
func NewEnv(scale Scale) *Env {
	return &Env{
		Scale:  scale,
		Config: gpu.DefaultConfig(),
		Obs:    obs.Nop(),
		cache:  &instCache{m: make(map[string]*translate.Result)},
	}
}

// WithObs attaches a telemetry and returns the env (builder style).
func (e *Env) WithObs(t *obs.Telemetry) *Env {
	e.Obs = t
	return e
}

// Clone returns a shallow copy sharing the instrument cache. The
// copy's Scale/Config/Obs can diverge freely, which is how the daemon
// gives every concurrent campaign its own telemetry plane while reusing
// one set of instrumented kernels. The clone is as reentrant as the
// original: campaign runs hold no Env state beyond the cache.
func (e *Env) Clone() *Env {
	return &Env{Scale: e.Scale, Config: e.Config, Obs: e.Obs, cache: e.cache}
}

// Instrument returns the (cached) instrumentation of a program for the
// given options.
func (e *Env) Instrument(spec *workloads.Spec, opts translate.Options) (*translate.Result, error) {
	key := fmt.Sprintf("%s|%d|%d|%v|%v|%v|%s", spec.Name, opts.Mode, opts.MaxVar, opts.NonLoop, opts.Loop, opts.NaiveDup, opts.OnlyVar)
	c := e.cache
	c.mu.Lock()
	if r, ok := c.m[key]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()
	r, err := translate.Instrument(spec.Build(), opts)
	if err != nil {
		return nil, fmt.Errorf("harness: instrument %s: %w", spec.Name, err)
	}
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
	return r, nil
}

// campaignWorkers resolves Scale.Workers: a non-positive value scales with
// the machine.
func (e *Env) campaignWorkers() int {
	if w := e.Scale.Workers; w > 0 {
		return w
	}
	return runtime.NumCPU()
}

// NewDevice creates a fresh simulated device for one run.
func (e *Env) NewDevice() *gpu.Device { return gpu.New(e.Config) }

// cpuConfig is the device with CPU (page-protected) semantics the Figure 1
// CPU rows run on.
func (e *Env) cpuConfig() gpu.Config {
	cfg := e.Config
	cfg.Mode = gpu.ModeCPU
	cfg.SMs = 1
	return cfg
}

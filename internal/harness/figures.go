package harness

import (
	"fmt"
	"math"
	"time"

	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/stats"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// --- Figure 2: data type vs. memory size ----------------------------------

// MemoryAudit reports a program's memory footprint by data type. Device
// buffers carry the bulk (FP or integer arrays); pointer data lives in
// per-thread registers (base pointers and derived addresses), as on the
// real machine.
type MemoryAudit struct {
	Program  string
	Class    workloads.Class
	FPBytes  int64
	IntBytes int64
	PtrBytes int64
}

// AuditMemory instantiates the program and classifies its allocations.
func (e *Env) AuditMemory(spec *workloads.Spec) *MemoryAudit {
	d := e.NewDevice()
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	a := &MemoryAudit{Program: spec.Name, Class: spec.Class}
	for _, b := range d.Buffers() {
		if b.Name == "workqueue" {
			// TPACF's concurrent-writer emulation scratch is a simulation
			// artifact, not program data.
			continue
		}
		bytes := int64(b.Len) * 4
		if b.Elem == kir.F32 {
			a.FPBytes += bytes
		} else {
			a.IntBytes += bytes
		}
	}
	threads := int64(inst.Grid * inst.Block)
	for _, v := range spec.Build().Vars() {
		switch v.Type {
		case kir.Ptr:
			a.PtrBytes += 4 * threads
		case kir.F32:
			a.FPBytes += 4 * threads
		default:
			a.IntBytes += 4 * threads
		}
	}
	return a
}

// --- Figure 3: graphics program fault impact ------------------------------

// GraphicsFaultCase is one row of the Figure 3 study.
type GraphicsFaultCase struct {
	Errors         int  // corrupted values injected
	CorruptPixels  int  // pixels deviating beyond the visibility threshold
	UserNoticeable bool // violates the frame requirement
	Failed         bool
}

// GraphicsFaultStudy injects a transient (1 value error) and an
// intermittent (errorCounts, e.g. thousands of value errors) FPU fault
// into a graphics program's frame computation and evaluates visibility.
func (e *Env) GraphicsFaultStudy(spec *workloads.Spec, errorCounts []int) ([]GraphicsFaultCase, error) {
	golden, err := e.Golden(spec, workloads.Dataset{Index: 0})
	if err != nil {
		return nil, err
	}
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		return nil, err
	}
	// Pick the busiest FPU site inside the loop: that is where an
	// intermittent FPU fault manifests.
	bestSite := -1
	var bestCount int64
	for _, s := range prof.Sites {
		if s.InLoop && s.HW == kir.HWFPU && prof.ExecCounts[s.ID] > bestCount {
			bestSite, bestCount = s.ID, prof.ExecCounts[s.ID]
		}
	}
	if bestSite < 0 {
		return nil, fmt.Errorf("harness: %s has no loop FPU site", spec.Name)
	}

	var out []GraphicsFaultCase
	for _, n := range errorCounts {
		inj := Injection{
			Cmd: swifi.Command{
				Site:     bestSite,
				Instance: bestCount / 4,
				Count:    int64(n),
				Mask:     1 << 22, // high-mantissa flip: a visible spike
			},
			Bits: 1,
		}
		r, err := e.RunInjection(spec, golden, nil, translate.ModeFI, inj)
		if err != nil {
			return nil, err
		}
		c := GraphicsFaultCase{Errors: n, Failed: r.Outcome == OutcomeFailure}
		if !c.Failed {
			// Re-run to inspect the actual frame for pixel accounting, under
			// the hang budget the injection above ran under.
			d := e.NewDevice()
			inst := spec.Setup(d, workloads.Dataset{Index: 0})
			gt, err := e.goldenTrace(spec, golden, nil, translate.ModeFI)
			if err != nil {
				return nil, err
			}
			injector := &swifi.Injector{}
			injector.Arm(inj.Cmd)
			rt := newProbeOnly(injector.Probe)
			if _, err := d.Launch(gt.tr.Kernel, gpu.LaunchSpec{
				Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
				StepBudget: gt.hangBudget,
			}); err == nil {
				frame := inst.ReadOutput()
				c.CorruptPixels = countCorrupt(golden.Output, frame, 0.05)
				c.UserNoticeable = !spec.Requirement.Check(golden.Output, frame)
			}
		} else {
			c.UserNoticeable = true
		}
		out = append(out, c)
	}
	return out, nil
}

// GraphicsFaultFrame runs the intermittent-fault scenario once and returns
// the corrupted frame words (for rendering the Figure 3 stripe).
func (e *Env) GraphicsFaultFrame(spec *workloads.Spec, errors int) ([]uint32, error) {
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		return nil, err
	}
	bestSite := -1
	var bestCount int64
	for _, s := range prof.Sites {
		if s.InLoop && s.HW == kir.HWFPU && prof.ExecCounts[s.ID] > bestCount {
			bestSite, bestCount = s.ID, prof.ExecCounts[s.ID]
		}
	}
	if bestSite < 0 {
		return nil, fmt.Errorf("harness: %s has no loop FPU site", spec.Name)
	}
	tr, err := e.Instrument(spec, translate.NewOptions(translate.ModeFI))
	if err != nil {
		return nil, err
	}
	injector := &swifi.Injector{}
	injector.Arm(swifi.Command{Site: bestSite, Instance: bestCount / 4, Count: int64(errors), Mask: 1 << 22})
	d := e.NewDevice()
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	if _, err := d.Launch(tr.Kernel, gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: newProbeOnly(injector.Probe),
	}); err != nil {
		return nil, err
	}
	return inst.ReadOutput(), nil
}

func countCorrupt(golden, frame []uint32, frac float64) int {
	n := 0
	for i := range golden {
		gf := float64(f32(golden[i]))
		af := float64(f32(frame[i]))
		if abs(af-gf) > frac || af != af {
			n++
		}
	}
	return n
}

func f32(w uint32) float32 { return math.Float32frombits(w) }

// --- Figure 10: value range distributions ---------------------------------

// ValueTrace holds per-variable value histograms collected by running the
// FI binary with a recording (non-corrupting) probe.
type ValueTrace struct {
	Sites []translate.Site
	Hists []*stats.DecadeHist
}

// TraceValues records the value distribution of every virtual variable in
// the program (Figure 10's measurement for MRI-Q).
func (e *Env) TraceValues(spec *workloads.Spec, ds workloads.Dataset) (*ValueTrace, error) {
	tr, err := e.Instrument(spec, translate.NewOptions(translate.ModeFI))
	if err != nil {
		return nil, err
	}
	vt := &ValueTrace{Sites: tr.Sites, Hists: make([]*stats.DecadeHist, len(tr.Sites))}
	for i := range vt.Hists {
		vt.Hists[i] = stats.NewDecadeHist(-21, 21)
	}
	rec := func(_ gpu.ThreadCtx, site int, v *kir.Var, _ kir.HW, val uint32) (uint32, bool) {
		switch v.Type {
		case kir.F32:
			vt.Hists[site].Add(float64(f32(val)))
		case kir.U32, kir.Ptr:
			vt.Hists[site].Add(float64(val))
		default:
			vt.Hists[site].Add(float64(int32(val)))
		}
		return val, false
	}
	d := e.NewDevice()
	inst := spec.Setup(d, ds)
	if _, err := d.Launch(tr.Kernel, gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: newProbeOnly(rec),
	}); err != nil {
		return nil, fmt.Errorf("harness: value trace of %s: %w", spec.Name, err)
	}
	return vt, nil
}

// --- Figure 15: bit-flip magnitude study -----------------------------------

// Fig15 runs the value-impact study at the environment's scale.
func (e *Env) Fig15(bitCounts []int) [][][]float64 {
	rng := stats.NewRng("fig15")
	return swifi.FlipStudy(rng, bitCounts, e.Scale.Fig15Samples)
}

// --- Section IX.D: instrumentation time ------------------------------------

// InstrTiming reports translator processing time for one program.
type InstrTiming struct {
	Program string
	// PerMode is the translator time per library mode.
	PerMode map[translate.Mode]time.Duration
	// Total sums all modes (the paper's 81-second figure additionally
	// includes C preprocessing and compilation, which have no analogue
	// here; the 0.7s transformer-only figure is the comparable one).
	Total time.Duration
}

// MeasureInstrumentation times the translator on every program, bypassing
// the cache.
func MeasureInstrumentation(specs []*workloads.Spec) []InstrTiming {
	modes := []translate.Mode{translate.ModeProfiler, translate.ModeFT, translate.ModeFI, translate.ModeFIFT}
	var out []InstrTiming
	for _, spec := range specs {
		it := InstrTiming{Program: spec.Name, PerMode: make(map[translate.Mode]time.Duration)}
		for _, m := range modes {
			r, err := translate.Instrument(spec.Build(), translate.NewOptions(m))
			if err != nil {
				continue
			}
			it.PerMode[m] = r.Elapsed
			it.Total += r.Elapsed
		}
		out = append(out, it)
	}
	return out
}

// --- shared helpers --------------------------------------------------------

// probeOnly adapts a bare probe function into gpu.Hooks.
type probeOnly struct {
	gpu.NopHooks
	fn func(gpu.ThreadCtx, int, *kir.Var, kir.HW, uint32) (uint32, bool)
}

func newProbeOnly(fn func(gpu.ThreadCtx, int, *kir.Var, kir.HW, uint32) (uint32, bool)) gpu.Hooks {
	return &probeOnly{fn: fn}
}

func (p *probeOnly) Probe(tc gpu.ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	return p.fn(tc, site, v, hw, val)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

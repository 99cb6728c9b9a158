package harness

import (
	"fmt"
	"math"
	"time"

	"hauberk/internal/core/hrt"
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
	cmd, err := e.intermittentFault(spec)
	if err != nil {
		return nil, err
	}
	var out []GraphicsFaultCase
	for _, n := range errorCounts {
		cmd.Count = int64(n)
		r, err := e.RunInjection(spec, golden, nil, translate.ModeFI, Injection{Cmd: cmd, Bits: 1})
		if err != nil {
			return nil, err
		}
		c := GraphicsFaultCase{Errors: n, Failed: r.Outcome == OutcomeFailure}
		if !c.Failed {
			// Re-run to inspect the actual frame for pixel accounting, under
			// the hang budget the injection above ran under.
			gt, err := e.goldenTrace(spec, golden, nil, translate.ModeFI)
			if err != nil {
				return nil, err
			}
			injector := &swifi.Injector{}
			injector.Arm(cmd)
			if inst, _, err := e.launch(spec, workloads.Dataset{Index: 0}, gt.tr.Kernel, &hrt.Runtime{Inject: injector.Probe}, gt.hangBudget); err == nil {
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
	cmd, err := e.intermittentFault(spec)
	if err != nil {
		return nil, err
	}
	cmd.Count = int64(errors)
	tr, err := e.Instrument(spec, translate.NewOptions(translate.ModeFI))
	if err != nil {
		return nil, err
	}
	injector := &swifi.Injector{}
	injector.Arm(cmd)
	inst, _, err := e.launch(spec, workloads.Dataset{Index: 0}, tr.Kernel, &hrt.Runtime{Inject: injector.Probe}, 0)
	if err != nil {
		return nil, err
	}
	return inst.ReadOutput(), nil
}

// intermittentFault is Figure 3's fault, less its error count: a
// high-mantissa flip (a visible spike) at the busiest FPU site inside the
// loop, where an intermittent FPU fault manifests, from a quarter of its
// executions on.
func (e *Env) intermittentFault(spec *workloads.Spec) (swifi.Command, error) {
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		return swifi.Command{}, err
	}
	bestSite := -1
	var bestCount int64
	for _, s := range prof.Sites {
		if s.InLoop && s.HW == kir.HWFPU && prof.ExecCounts[s.ID] > bestCount {
			bestSite, bestCount = s.ID, prof.ExecCounts[s.ID]
		}
	}
	if bestSite < 0 {
		return swifi.Command{}, fmt.Errorf("harness: %s has no loop FPU site", spec.Name)
	}
	return swifi.Command{Site: bestSite, Instance: bestCount / 4, Mask: 1 << 22}, nil
}

func countCorrupt(golden, frame []uint32, frac float64) int {
	n := 0
	for i := range golden {
		gf := float64(f32(golden[i]))
		af := float64(f32(frame[i]))
		if math.Abs(af-gf) > frac || math.IsNaN(af) {
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
	if _, _, err := e.launch(spec, ds, tr.Kernel, &hrt.Runtime{Inject: rec}, 0); err != nil {
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

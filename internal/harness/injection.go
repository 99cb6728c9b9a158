package harness

import (
	"fmt"
	"sort"
	"strings"

	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/stats"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// Injection is one planned fault-injection experiment.
type Injection struct {
	Cmd   swifi.Command
	Site  translate.Site
	Bits  int
	Class kir.DataClass
}

// PlanCampaign derives the injection list for a program: up to
// Scale.MaxSites virtual variables, Scale.MasksPerSite random masks each,
// spread over Scale.BitCounts, with the dynamic injection instance drawn
// from the profiled execution counts (Section VIII's methodology).
func (e *Env) PlanCampaign(spec *workloads.Spec, prof *ProfileResult, bitCounts []int) []Injection {
	rng := stats.NewRng("campaign", spec.Name)
	var sites []translate.Site
	for _, s := range prof.Sites {
		if prof.ExecCounts[s.ID] > 0 {
			sites = append(sites, s)
		}
	}
	if len(sites) > e.Scale.MaxSites {
		// Deterministic spread over the program's variables.
		step := float64(len(sites)) / float64(e.Scale.MaxSites)
		var picked []translate.Site
		for i := 0; i < e.Scale.MaxSites; i++ {
			picked = append(picked, sites[int(float64(i)*step)])
		}
		sites = picked
	}

	var plan []Injection
	for _, site := range sites {
		for m := 0; m < e.Scale.MasksPerSite; m++ {
			bits := bitCounts[m%len(bitCounts)]
			count := prof.ExecCounts[site.ID]
			inst := int64(0)
			if count > 1 {
				inst = rng.Int63n(count)
			}
			plan = append(plan, Injection{
				Cmd:   swifi.Command{Site: site.ID, Instance: inst, Mask: swifi.RandomMask(rng, bits)},
				Site:  site,
				Bits:  bits,
				Class: site.Class,
			})
		}
	}
	return plan
}

// InjectionResult is the classified outcome of one injection run.
type InjectionResult struct {
	Injection Injection
	Outcome   Outcome
	// Hang distinguishes hang failures from crashes.
	Hang bool
	// Activated reports whether the fault was actually injected (the
	// chosen instance executed).
	Activated bool
	// TimedOut marks a run the campaign watchdog killed by wall clock
	// (always a hang failure).
	TimedOut bool
}

// RunInjection executes one fault-injection experiment with the given
// library mode (ModeFI for baseline sensitivity, ModeFIFT for Hauberk
// coverage) on a device of e.Config and classifies the outcome against the
// golden run. It is the one funnel the figures and tests go through; a
// campaign, and the isolated worker, resolve the golden trace once and
// call injectOn per injection.
func (e *Env) RunInjection(
	spec *workloads.Spec,
	golden *GoldenRun,
	store *ranges.Store,
	mode translate.Mode,
	inj Injection,
) (*InjectionResult, error) {
	gt, err := e.goldenTrace(spec, golden, store, mode)
	if err != nil {
		return nil, err
	}
	return e.injectOn(gt, golden, inj, e.injectionMetrics()), nil
}

// injectionMetrics are the series every injection launch counts into,
// resolved once per campaign so the injection path looks nothing up.
type injectionMetrics struct {
	exit              [numExitReasons]*obs.Counter
	executed, skipped *obs.Counter
	live, restored    *obs.Counter
}

// injectionMetrics resolves the injection series in e's registry; nil
// when e's telemetry is disabled.
func (e *Env) injectionMetrics() *injectionMetrics {
	if !e.Obs.Enabled() {
		return nil
	}
	m := e.Obs.Metrics()
	m.Help("hauberk_injection_exit_total", "injection launches by how they ended (golden-trace resume)")
	m.Help("hauberk_injection_threads_total", "threads of injection launches executed live vs taken from the golden trace")
	m.Help("hauberk_injection_steps_total", "statements of injection launches executed live vs taken from the golden trace")
	im := &injectionMetrics{
		executed: m.Counter("hauberk_injection_threads_total", "kind", "executed"),
		skipped:  m.Counter("hauberk_injection_threads_total", "kind", "skipped"),
		live:     m.Counter("hauberk_injection_steps_total", "kind", "live"),
		restored: m.Counter("hauberk_injection_steps_total", "kind", "restored"),
	}
	for r := range im.exit {
		im.exit[r] = m.Counter("hauberk_injection_exit_total", "reason", exitReason(r).String())
	}
	return im
}

// injectOn runs one injection against a resolved golden trace of golden
// and classifies it, counting the launch into im (nil: not counted).
func (e *Env) injectOn(gt *goldenTrace, golden *GoldenRun, inj Injection, im *injectionMetrics) *InjectionResult {
	l := gt.launch(inj.Cmd)
	if im != nil {
		im.exit[l.exit].Inc()
		im.executed.Add(int64(l.executed))
		im.skipped.Add(int64(l.result.Threads - l.executed))
		im.live.Add(l.live)
		im.restored.Add(l.restored)
	}
	res := &InjectionResult{Injection: inj, Activated: l.activated}
	if l.err != nil {
		res.Outcome = OutcomeFailure
		_, res.Hang = l.err.(*gpu.HangError)
	} else {
		// The output is read in place: the view is valid until the device
		// goes back to the pool.
		meets := gt.spec.Requirement.Check(golden.Output, l.td.inst.OutputView())
		res.Outcome = Classify(false, l.cb.SDC(), meets)
	}
	gt.release(l.td)
	return res
}

// CampaignResult aggregates a program's campaign.
type CampaignResult struct {
	Spec    *workloads.Spec
	Results []InjectionResult
	// ByBits tallies outcomes per error-bit count.
	ByBits map[int]*Tally
	// ByClass tallies outcomes per corrupted data class.
	ByClass map[kir.DataClass]*Tally
	// All tallies everything.
	All Tally
	// Hangs counts hang failures.
	Hangs int
}

// aggregate rebuilds the tallies (All, ByBits, ByClass, Hangs) from
// Results. It is shared by the campaign runner and the shard merger, so
// both derive figure aggregates identically.
func (cr *CampaignResult) aggregate() {
	cr.All = Tally{}
	cr.Hangs = 0
	cr.ByBits = make(map[int]*Tally)
	cr.ByClass = make(map[kir.DataClass]*Tally)
	for i := range cr.Results {
		r := &cr.Results[i]
		cr.All.Add(r.Outcome)
		if r.Hang {
			cr.Hangs++
		}
		tb := cr.ByBits[r.Injection.Bits]
		if tb == nil {
			tb = &Tally{}
			cr.ByBits[r.Injection.Bits] = tb
		}
		tb.Add(r.Outcome)
		tc := cr.ByClass[r.Injection.Class]
		if tc == nil {
			tc = &Tally{}
			cr.ByClass[r.Injection.Class] = tc
		}
		tc.Add(r.Outcome)
	}
}

// BitCounts returns the error-bit counts the campaign injected, ascending:
// the row order of every by-bit-count table.
func (cr *CampaignResult) BitCounts() []int {
	bits := make([]int, 0, len(cr.ByBits))
	for b := range cr.ByBits {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	return bits
}

// FigureDigest renders the campaign's aggregate figures (overall tally,
// per-bit-count and per-class breakdowns, hang count) as a deterministic
// string. Two campaigns whose digests are byte-identical produce the same
// Figures 13–16 rows; the resume and shard differential tests — and the
// CI campaign smoke — compare digests across run topologies.
func (cr *CampaignResult) FigureDigest() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d hangs=%d\n", cr.All.Total(), cr.Hangs)
	writeTally := func(label string, t *Tally) {
		fmt.Fprintf(&sb, "%s:", label)
		for o := Outcome(0); o < NumOutcomes; o++ {
			fmt.Fprintf(&sb, " %s=%d", o, t[o])
		}
		fmt.Fprintf(&sb, " coverage=%.6f\n", t.Coverage())
	}
	writeTally("all", &cr.All)
	for _, b := range cr.BitCounts() {
		writeTally(fmt.Sprintf("bits[%d]", b), cr.ByBits[b])
	}
	classes := make([]int, 0, len(cr.ByClass))
	for c := range cr.ByClass {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		writeTally(fmt.Sprintf("class[%s]", kir.DataClass(c)), cr.ByClass[kir.DataClass(c)])
	}
	return sb.String()
}

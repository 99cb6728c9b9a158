// Package translate is the HAUBERK source-to-source translator (the
// paper's CETUS extension, Section IV.B). It consumes a kernel in the kir
// IR and produces an instrumented clone according to the selected library
// mode, mirroring Figure 7's five binaries:
//
//	ModeNone     — baseline (a plain clone; measures baseline performance)
//	ModeProfiler — profiles value ranges of loop-protected variables,
//	               counts per-site executions (FI target derivation), and
//	               produces the golden output
//	ModeFT       — fault-tolerance detectors: non-loop duplication +
//	               checksum, loop accumulation + range checking
//	ModeFI       — fault-injection probes after every state-changing
//	               statement
//	ModeFIFT     — FI probes and FT detectors together (coverage runs)
//
// Table I of the paper enumerates the insertion points; each is implemented
// here and cross-referenced in the code.
package translate

import (
	"fmt"
	"time"

	"hauberk/internal/core/hrt"
	"hauberk/internal/kir"
)

// Mode selects the Hauberk library variant linked into the binary.
type Mode uint8

// Library modes (Figure 7).
const (
	ModeNone Mode = iota
	ModeProfiler
	ModeFT
	ModeFI
	ModeFIFT
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "baseline"
	case ModeProfiler:
		return "profiler"
	case ModeFT:
		return "ft"
	case ModeFI:
		return "fi"
	case ModeFIFT:
		return "fi+ft"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Options configures the translator.
type Options struct {
	Mode Mode

	// MaxVar is the user-specified maximum number of virtual variables
	// protected by loop error detectors per loop (Section V.B step i).
	// Self-accumulating variables count against it.
	MaxVar int

	// NonLoop / Loop enable the two detector families; HAUBERK-NL and
	// HAUBERK-L of the evaluation are FT with one of them disabled.
	NonLoop bool
	Loop    bool

	// NaiveDup switches the non-loop detector to the naive
	// variable-granularity duplication of Figure 8(b) — the ablation
	// showing why the checksum variant controls register pressure.
	NaiveDup bool
}

// NewOptions returns the default options for a mode (MaxVar 1, both
// detector families on).
func NewOptions(mode Mode) Options {
	return Options{Mode: mode, MaxVar: 1, NonLoop: true, Loop: true}
}

// Site is one fault-injection site: a state-changing statement of the
// original program plus the classification the FI library receives
// (Figure 12).
type Site struct {
	ID      int
	VarName string
	Class   kir.DataClass
	HW      kir.HW
	InLoop  bool
}

// Result is the instrumented kernel with its derived metadata.
type Result struct {
	Kernel *kir.Kernel
	// Sites lists FI sites in deterministic program order; identical
	// across modes for the same input kernel.
	Sites []Site
	// Detectors lists the detector metadata for the control block.
	Detectors []hrt.DetectorMeta
	// NLProtected counts virtual variables protected by the non-loop
	// detector.
	NLProtected int
	// LoopProtected counts variables protected by loop detectors.
	LoopProtected int
	// Elapsed is the translator's processing time (the paper reports it
	// in Section IX.D).
	Elapsed time.Duration
}

// Instrument translates one kernel. The input kernel is not modified.
func Instrument(k *kir.Kernel, opts Options) (*Result, error) {
	start := time.Now()
	if opts.MaxVar <= 0 {
		opts.MaxVar = 1
	}
	if err := kir.Validate(k); err != nil {
		return nil, fmt.Errorf("translate: input kernel invalid: %w", err)
	}

	ck, _ := kir.Clone(k)
	ins := &instr{
		k:    ck,
		an:   kir.Analyze(ck),
		opts: opts,
	}
	ins.plan()
	ck.Body = ins.emitTop(ck.Body)
	ins.finishKernel(&ck.Body)

	if err := kir.Validate(ck); err != nil {
		return nil, fmt.Errorf("translate: instrumented kernel invalid (translator bug): %w", err)
	}
	return &Result{
		Kernel:        ck,
		Sites:         ins.sites,
		Detectors:     ins.dets,
		NLProtected:   ins.nlProtected,
		LoopProtected: ins.loopProtected,
		Elapsed:       time.Since(start),
	}, nil
}

// wantNL reports whether non-loop detectors are emitted in this mode.
func (o Options) wantNL() bool {
	return o.NonLoop && (o.Mode == ModeFT || o.Mode == ModeFIFT)
}

// wantLoopCheck reports whether loop range/iteration checks are emitted.
func (o Options) wantLoopCheck() bool {
	return o.Loop && (o.Mode == ModeFT || o.Mode == ModeFIFT)
}

// wantLoopAccum reports whether loop accumulators are emitted (checks or
// profiling both need them).
func (o Options) wantLoopAccum() bool {
	return o.wantLoopCheck() || (o.Loop && o.Mode == ModeProfiler)
}

// wantProbes reports whether FI probes are emitted.
func (o Options) wantProbes() bool { return o.Mode == ModeFI || o.Mode == ModeFIFT }

// wantCounts reports whether profiler execution counters are emitted.
func (o Options) wantCounts() bool { return o.Mode == ModeProfiler }

// Command hauberk-translate runs the HAUBERK source-to-source translator
// on one benchmark kernel and prints the original and instrumented
// pseudo-CUDA source, the derived fault-injection sites, and the loop
// detector metadata — the Figure 8 / Table I view of the framework.
//
// Usage:
//
//	hauberk-translate -program CP -mode ft
//	hauberk-translate -program MRI-Q -mode fi+ft -maxvar 2
//	hauberk-translate -program CP -mode ft -naive   # Figure 8(b) ablation
//	hauberk-translate -program CP -variant hauberk-l   # loop detectors only
package main

import (
	"flag"
	"fmt"
	"os"

	"hauberk/internal/core/translate"
	"hauberk/internal/harness"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

func main() {
	var (
		program = flag.String("program", "CP", "benchmark program name (CP, MRI-FHD, MRI-Q, PNS, RPES, SAD, TPACF, ocean-flow, ray-trace)")
		mode    = flag.String("mode", "ft", "library mode: profiler, ft, fi, fi+ft")
		maxvar  = flag.Int("maxvar", 1, "max virtual variables protected per loop")
		naive   = flag.Bool("naive", false, "use naive duplication (Figure 8(b)) instead of checksum duplication")
		variant = flag.String("variant", "hauberk", "detector families: baseline, hauberk, hauberk-nl, hauberk-l")
		quiet   = flag.Bool("quiet", false, "suppress source listings, print only the summary")
	)
	flag.Parse()

	spec := workloads.ByName(*program)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *program)
		os.Exit(2)
	}
	var m translate.Mode
	switch *mode {
	case "profiler":
		m = translate.ModeProfiler
	case "ft":
		m = translate.ModeFT
	case "fi":
		m = translate.ModeFI
	case "fi+ft", "fift":
		m = translate.ModeFIFT
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	opts, err := harness.Variant(*variant).Options(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.MaxVar = *maxvar
	opts.NaiveDup = *naive

	orig := spec.Build()
	res, err := translate.Instrument(orig, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "translate: %v\n", err)
		os.Exit(1)
	}

	if !*quiet {
		fmt.Println("// ----- original kernel -----")
		fmt.Print(kir.Print(orig))
		fmt.Println()
		fmt.Printf("// ----- instrumented kernel (%s) -----\n", m)
		fmt.Print(kir.Print(res.Kernel))
		fmt.Println()
	}

	fmt.Printf("translator time: %v\n", res.Elapsed)
	fmt.Printf("non-loop protected virtual variables: %d\n", res.NLProtected)
	fmt.Printf("loop protected variables: %d\n", res.LoopProtected)
	fmt.Printf("fault-injection sites: %d\n", len(res.Sites))
	for _, s := range res.Sites {
		loc := "non-loop"
		if s.InLoop {
			loc = "loop"
		}
		fmt.Printf("  site %3d  %-16s %-8s %-5s %s\n", s.ID, s.VarName, s.Class, s.HW, loc)
	}
	fmt.Printf("detectors: %d\n", len(res.Detectors))
	for _, d := range res.Detectors {
		kind := "range"
		if d.SelfAccum {
			kind = "range (self-accumulating)"
		}
		fmt.Printf("  det %2d  %-28s %s\n", d.ID, d.Name, kind)
	}
}

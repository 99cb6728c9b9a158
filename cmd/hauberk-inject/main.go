// Command hauberk-inject runs a SWIFI fault-injection campaign against one
// benchmark program (Section VII/VIII) and prints the five-way outcome
// classification per error-bit count.
//
// Usage:
//
//	hauberk-inject -program CP                      # Hauberk-protected (FI&FT)
//	hauberk-inject -program CP -mode fi             # baseline sensitivity
//	hauberk-inject -program MRI-FHD -sites 50 -masks 50 -bits 1,3,6,10,15
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hauberk/internal/core/translate"
	"hauberk/internal/harness"
	"hauberk/internal/workloads"
)

func main() {
	var (
		program = flag.String("program", "CP", "benchmark program name")
		mode    = flag.String("mode", "fi+ft", "fi (baseline sensitivity) or fi+ft (Hauberk coverage)")
		sites   = flag.Int("sites", 30, "max virtual variables to inject into")
		masks   = flag.Int("masks", 50, "random error masks per variable")
		bits    = flag.String("bits", "1,3,6,10,15", "comma-separated error bit counts")
		workers = flag.Int("workers", 8, "parallel injection workers")
	)
	flag.Parse()

	spec := workloads.ByName(*program)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *program)
		os.Exit(2)
	}
	var m translate.Mode
	switch *mode {
	case "fi":
		m = translate.ModeFI
	case "fi+ft", "fift":
		m = translate.ModeFIFT
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	bitCounts, err := parseBits(*bits)
	check(err)

	scale := harness.FullScale()
	scale.MaxSites = *sites
	scale.MasksPerSite = *masks
	scale.BitCounts = bitCounts
	scale.Workers = *workers
	env := harness.NewEnv(scale)

	pc, err := env.PrepareCampaign(spec, workloads.Dataset{Index: 0})
	check(err)
	pc.Mode = m
	fmt.Printf("%s: injecting %d faults (%d sites x %d masks, %s mode)\n",
		spec.Name, len(pc.Plan), min(len(pc.Prof.Sites), *sites), *masks, m)

	cr, err := env.RunPrepared(context.Background(), pc, harness.CampaignOptions{})
	check(err)

	tbl := &harness.Table{
		Title:  fmt.Sprintf("%s fault injection outcomes (%s)", spec.Name, m),
		Header: []string{"bits", "runs", "failure %", "masked %", "det&masked %", "detected %", "undetected %", "coverage %"},
	}
	for _, b := range cr.BitCounts() {
		tbl.AddOutcomeRow(cr.ByBits[b], b, cr.ByBits[b].Total())
	}
	tbl.AddOutcomeRow(&cr.All, "all", cr.All.Total())
	fmt.Print(tbl.Render())
	fmt.Printf("hangs detected by the guardian watchdog: %d\n", cr.Hangs)
}

func parseBits(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad bit count %q", p)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no bit counts")
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

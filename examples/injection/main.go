// Injection: run a scaled-down fault-injection campaign against MRI-Q and
// compare the baseline program's sensitivity (FI mode) with the
// Hauberk-protected program's coverage (FI&FT mode) — the Section VIII
// methodology with the Section IX outcome classification.
//
// Run with:
//
//	go run ./examples/injection
package main

import (
	"context"
	"fmt"
	"log"

	"hauberk/internal/core/translate"
	"hauberk/internal/harness"
	"hauberk/internal/workloads"
)

func main() {
	scale := harness.QuickScale()
	scale.MaxSites = 20
	scale.MasksPerSite = 20
	scale.BitCounts = []int{1, 6, 15}
	env := harness.NewEnv(scale)

	spec := workloads.MRIQ()
	pc, err := env.PrepareCampaign(spec, workloads.Dataset{Index: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %d injections into %s\n\n", len(pc.Plan), spec.Name)

	for _, mode := range []translate.Mode{translate.ModeFI, translate.ModeFIFT} {
		pc.Mode = mode
		cr, err := env.RunPrepared(context.Background(), pc, harness.CampaignOptions{})
		if err != nil {
			log.Fatal(err)
		}
		label := "baseline (no detectors)"
		if mode == translate.ModeFIFT {
			label = "Hauberk protected"
		}
		fmt.Printf("%s:\n", label)
		fmt.Printf("  failure          %5.1f%%\n", 100*cr.All.Frac(harness.OutcomeFailure))
		fmt.Printf("  masked           %5.1f%%\n", 100*cr.All.Frac(harness.OutcomeMasked))
		fmt.Printf("  detected&masked  %5.1f%%\n", 100*cr.All.Frac(harness.OutcomeDetectedMasked))
		fmt.Printf("  detected         %5.1f%%\n", 100*cr.All.Frac(harness.OutcomeDetected))
		fmt.Printf("  undetected SDC   %5.1f%%\n", 100*cr.All.Frac(harness.OutcomeUndetected))
		fmt.Printf("  => coverage      %5.1f%%\n\n", 100*cr.All.Coverage())
	}
	fmt.Println("the drop in undetected SDC between the two runs is what Hauberk buys")
}

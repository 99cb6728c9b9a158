package harness

import (
	"context"
	"testing"

	"hauberk/internal/workloads"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		failed, sdc, meets bool
		want               Outcome
	}{
		{true, false, false, OutcomeFailure},
		{true, true, true, OutcomeFailure}, // failure dominates
		{false, false, true, OutcomeMasked},
		{false, true, true, OutcomeDetectedMasked},
		{false, true, false, OutcomeDetected},
		{false, false, false, OutcomeUndetected},
	}
	for _, tc := range cases {
		if got := Classify(tc.failed, tc.sdc, tc.meets); got != tc.want {
			t.Errorf("Classify(%v,%v,%v) = %s, want %s", tc.failed, tc.sdc, tc.meets, got, tc.want)
		}
	}
}

func TestTallyMath(t *testing.T) {
	var tal Tally
	tal.Add(OutcomeMasked)
	tal.Add(OutcomeMasked)
	tal.Add(OutcomeUndetected)
	tal.Add(OutcomeDetected)
	if tal.Total() != 4 {
		t.Fatalf("total = %d", tal.Total())
	}
	if got := tal.Frac(OutcomeMasked); got != 0.5 {
		t.Fatalf("masked frac = %f", got)
	}
	if got := tal.Coverage(); got != 0.75 {
		t.Fatalf("coverage = %f (1 - undetected frac)", got)
	}
	var other Tally
	other.Add(OutcomeUndetected)
	tal.Merge(other)
	if tal.Total() != 5 || tal[OutcomeUndetected] != 2 {
		t.Fatalf("merge wrong: %+v", tal)
	}
	var empty Tally
	if empty.Frac(OutcomeMasked) != 0 || empty.Coverage() != 1 {
		t.Fatalf("empty tally edge cases")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	e.Scale.MaxSites = 6
	e.Scale.MasksPerSite = 4
	e.Scale.BitCounts = []int{1, 6}
	pc, err := e.PrepareCampaign(workloads.PNS(), workloads.Dataset{Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	plan1 := pc.Plan
	plan2 := e.PlanCampaign(pc.Spec, pc.Prof, e.Scale.BitCounts)
	if len(plan1) != len(plan2) {
		t.Fatalf("plans differ in size")
	}
	for i := range plan1 {
		if plan1[i].Cmd != plan2[i].Cmd {
			t.Fatalf("plan not deterministic at %d: %v vs %v", i, plan1[i].Cmd, plan2[i].Cmd)
		}
	}
	r1, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pc.Plan = plan2
	r2, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.All != r2.All {
		t.Fatalf("campaign outcomes not deterministic: %v vs %v", r1.All, r2.All)
	}
	for i := range r1.Results {
		if r1.Results[i].Outcome != r2.Results[i].Outcome {
			t.Fatalf("injection %d outcome differs", i)
		}
	}
}

func TestPlanCampaignRespectsSiteCap(t *testing.T) {
	e := NewEnv(QuickScale())
	e.Scale.MaxSites = 5
	e.Scale.MasksPerSite = 3
	spec := workloads.CP()
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	plan := e.PlanCampaign(spec, prof, []int{1})
	if len(plan) != 5*3 {
		t.Fatalf("plan size = %d, want 15", len(plan))
	}
	sites := map[int]bool{}
	for _, inj := range plan {
		sites[inj.Cmd.Site] = true
		if prof.ExecCounts[inj.Cmd.Site] == 0 {
			t.Fatalf("planned injection into a never-executing site %d", inj.Cmd.Site)
		}
		if inj.Cmd.Instance >= prof.ExecCounts[inj.Cmd.Site] {
			t.Fatalf("instance %d beyond the site's %d executions",
				inj.Cmd.Instance, prof.ExecCounts[inj.Cmd.Site])
		}
	}
	if len(sites) != 5 {
		t.Fatalf("distinct sites = %d, want 5", len(sites))
	}
}

package harness

import (
	"reflect"
	"testing"

	"hauberk/internal/core/translate"
	"hauberk/internal/workloads"
)

// TestPlanCampaignDeterminism: the plan is seeded, so planning twice (or
// in another process/shard) derives the identical injection list, and the
// site spread never duplicates a site when the program has more sites
// than Scale.MaxSites.
func TestPlanCampaignDeterminism(t *testing.T) {
	e := NewEnv(tinyScale())
	e.Scale.MaxSites = 3 // force the spread path
	spec := workloads.ByName("CP")
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := e.PlanCampaign(spec, prof, e.Scale.BitCounts)
	b := e.PlanCampaign(spec, prof, e.Scale.BitCounts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PlanCampaign is not deterministic for a fixed seed")
	}
	sites := make(map[int]bool)
	for _, inj := range a {
		sites[inj.Cmd.Site] = true
	}
	var live int
	for _, s := range prof.Sites {
		if prof.ExecCounts[s.ID] > 0 {
			live++
		}
	}
	if live <= e.Scale.MaxSites {
		t.Skipf("CP has only %d live sites; spread path not exercised", live)
	}
	if len(sites) != e.Scale.MaxSites {
		t.Fatalf("spread picked %d distinct sites, want %d (duplicates collapse coverage)", len(sites), e.Scale.MaxSites)
	}
	if len(a) != e.Scale.MaxSites*e.Scale.MasksPerSite {
		t.Fatalf("plan has %d injections, want %d", len(a), e.Scale.MaxSites*e.Scale.MasksPerSite)
	}
	// The manifest fingerprints the plan: equal plans, equal hashes.
	m1 := e.CampaignManifest(spec, translate.ModeFIFT, a)
	m2 := e.CampaignManifest(spec, translate.ModeFIFT, b)
	if m1 != m2 {
		t.Fatalf("manifests differ for identical plans: %+v vs %+v", m1, m2)
	}
	if m1.PlanHash == e.CampaignManifest(spec, translate.ModeFI, a).PlanHash {
		t.Fatal("plan hash ignores the library mode")
	}
}

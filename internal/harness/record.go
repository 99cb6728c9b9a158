package harness

import (
	"fmt"
	"strconv"
	"strings"

	"hauberk/internal/core/translate"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/kir"
	"hauberk/internal/stats"
	"hauberk/internal/workloads"
)

// ParseShard parses the CLI's "i/N" shard syntax.
func ParseShard(s string) (shard, shards int, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("harness: shard %q: want i/N", s)
	}
	shard, err = strconv.Atoi(s[:i])
	if err != nil {
		return 0, 0, fmt.Errorf("harness: bad shard index in %q: %w", s, err)
	}
	shards, err = strconv.Atoi(s[i+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("harness: bad shard count in %q: %w", s, err)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("harness: shard %q out of range", s)
	}
	return shard, shards, nil
}

// CampaignManifest derives the deterministic identity of a planned
// campaign: the plan hash fingerprints the ordered stable injection IDs,
// so two processes that planned with the same seed and scale agree, and a
// stale store directory is detected before any append.
func (e *Env) CampaignManifest(spec *workloads.Spec, mode translate.Mode, plan []Injection) cstore.Manifest {
	labels := make([]any, 0, len(plan)+2)
	labels = append(labels, "campaign-plan", int(mode))
	for i := range plan {
		labels = append(labels, plan[i].Cmd.Key())
	}
	return cstore.Manifest{
		Program:    spec.Name,
		Mode:       int(mode),
		Injections: len(plan),
		PlanHash:   fmt.Sprintf("%016x", stats.Fingerprint(labels...)),
		Scale: fmt.Sprintf("sites=%d masks=%d bits=%v",
			e.Scale.MaxSites, e.Scale.MasksPerSite, e.Scale.BitCounts),
	}
}

// recordOf converts a classified result into its store form.
func recordOf(idx int, inj Injection, r *InjectionResult) cstore.Record {
	return cstore.Record{
		Idx:       idx,
		ID:        inj.Cmd.Key(),
		Outcome:   int(r.Outcome),
		Hang:      r.Hang,
		Activated: r.Activated,
		Bits:      inj.Bits,
		Class:     int(inj.Class),
		TimedOut:  r.TimedOut,
	}
}

// resultFromRecord rebuilds the aggregation-relevant view of a result.
// Records carry bits and class, so figure aggregates derive from the log
// alone — the merged-shard path and the completed run share this,
// which is what makes their digests byte-identical.
func resultFromRecord(rec cstore.Record) InjectionResult {
	return InjectionResult{
		Injection: Injection{Bits: rec.Bits, Class: kir.DataClass(rec.Class)},
		Outcome:   Outcome(rec.Outcome),
		Hang:      rec.Hang,
		Activated: rec.Activated,
		TimedOut:  rec.TimedOut,
	}
}

// CampaignTable renders a campaign's aggregate outcomes in the Figure 14
// shape: one row per error-bit count plus a total row.
func CampaignTable(man cstore.Manifest, cr *CampaignResult) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Campaign %s (mode %d, %d injections, plan %s)", man.Program, man.Mode, man.Injections, man.PlanHash),
		Header: []string{"bits", "n", "failure %", "masked %", "det&masked %", "detected %", "undetected %", "coverage %"},
	}
	for _, b := range cr.BitCounts() {
		t.AddOutcomeRow(cr.ByBits[b], b, cr.ByBits[b].Total())
	}
	t.AddOutcomeRow(&cr.All, "ALL", cr.All.Total())
	t.Notes = append(t.Notes, fmt.Sprintf("hangs: %d", cr.Hangs))
	return t
}

// LoadCampaignDir merges every shard of a campaign directory's log into
// one aggregate result. An incomplete merge (missing shards or an interrupted
// run) is an error naming the missing count, so reports never silently
// aggregate a partial campaign.
func LoadCampaignDir(dir string) (cstore.Manifest, *CampaignResult, error) {
	man, recs, err := cstore.Load(dir)
	if err != nil {
		return man, nil, err
	}
	out, err := FoldCampaign(dir, man, recs)
	return man, out, err
}

// FoldCampaign aggregates the records of the campaign named name, sorted
// by plan index, into its result; a campaign with records missing is an
// error, as in LoadCampaignDir.
func FoldCampaign(name string, man cstore.Manifest, recs []cstore.Record) (*CampaignResult, error) {
	if missing := cstore.Missing(man, recs); missing > 0 {
		return nil, fmt.Errorf("harness: campaign %s incomplete: %d of %d injections missing (resume it or merge all shards)",
			name, missing, man.Injections)
	}
	out := &CampaignResult{Results: make([]InjectionResult, 0, len(recs))}
	for _, rec := range recs {
		out.Results = append(out.Results, resultFromRecord(rec))
	}
	out.aggregate()
	return out, nil
}

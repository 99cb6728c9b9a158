package harness

import (
	"context"
	"strings"
	"testing"

	"hauberk/internal/core/translate"
)

// TestPreparedCampaignBacksTwoRuns pins the contract the daemon rests on:
// one shared preparation backs any number of runs, each with its own
// store, with byte-identical figure digests.
func TestPreparedCampaignBacksTwoRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	if pc.Mode != translate.ModeFIFT {
		t.Fatalf("prepared mode = %v, want ModeFIFT", pc.Mode)
	}
	var ref string
	for i := 0; i < 2; i++ {
		got, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = got.FigureDigest()
		} else if got.FigureDigest() != ref {
			t.Fatalf("second run's digest differs from the first's:\n%s\nvs\n%s", got.FigureDigest(), ref)
		}
	}
}

// TestRunPreparedRejectsBadOptions: options that cannot mean anything fail
// before any injection runs.
func TestRunPreparedRejectsBadOptions(t *testing.T) {
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	for want, opts := range map[string]CampaignOptions{
		"needs its store dir": {Resume: true},
		"invalid shard":       {Shard: 2, Shards: 2},
	} {
		if _, err := e.RunPrepared(context.Background(), pc, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: got %v, want an error saying %q", opts, err, want)
		}
	}
}

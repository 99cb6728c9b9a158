package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cstore "hauberk/internal/harness/store"
)

// TestCampaignIncompleteMergeFails: aggregating a partial campaign is an
// error, never a silently wrong report.
func TestCampaignIncompleteMergeFails(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	dir := t.TempDir()
	if _, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: dir, Shard: 0, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCampaignDir(dir); err == nil {
		t.Fatal("LoadCampaignDir aggregated a campaign missing shard 1/2")
	}
}

// TestLoadCampaignDirRejectsForeignIndex: a log holding records {0, 1, 99}
// of a 3-injection campaign is neither complete nor mergeable — the record
// for an index outside the plan must not be folded in place of injection 2.
func TestLoadCampaignDirRejectsForeignIndex(t *testing.T) {
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	pc.Plan = pc.Plan[:3]
	dir := t.TempDir()
	if _, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCampaignDir(dir); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, cstore.JournalFile)
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.Replace(raw, []byte(`"idx":2,`), []byte(`"idx":99,`), 1)
	if bytes.Equal(forged, raw) {
		t.Fatalf("no record 2 in %s", raw)
	}
	if err := os.WriteFile(log, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCampaignDir(dir); err == nil || !strings.Contains(err.Error(), "injection 99 is outside the 3-injection plan") {
		t.Fatalf("LoadCampaignDir over records {0, 1, 99}: got %v, want the out-of-plan index rejected", err)
	}
}

// TestResumeDriftNamesStore: a store record that is for another injection
// than the plan's at its index is refused, naming the store — for a daemon
// campaign, which has no Dir, its journal and tag.
func TestResumeDriftNamesStore(t *testing.T) {
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	path := filepath.Join(t.TempDir(), cstore.JournalFile)
	l, err := cstore.CreateLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cs, err := l.Open("c000001", e.CampaignManifest(pc.Spec, pc.Mode, pc.Plan), 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Append(cstore.Record{Idx: 0, ID: "drifted"}); err != nil {
		t.Fatal(err)
	}
	_, err = e.RunPrepared(context.Background(), pc, CampaignOptions{Store: cs})
	if want := path + " (campaign c000001) record 0 is for injection \"drifted\""; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunPrepared over a drifted daemon store: %v, want an error holding %q", err, want)
	}
}

// TestParseShard covers the CLI shard syntax.
func TestParseShard(t *testing.T) {
	s, n, err := ParseShard("1/4")
	if err != nil || s != 1 || n != 4 {
		t.Fatalf("ParseShard(1/4) = %d,%d,%v", s, n, err)
	}
	for _, bad := range []string{"", "2", "x/2", "1/y", "-1/2", "2/2", "0/0"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) should fail", bad)
		}
	}
}

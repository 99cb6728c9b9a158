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
	log := filepath.Join(dir, cstore.ShardFile(0, 1))
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

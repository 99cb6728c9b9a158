package service

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hauberk/internal/harness/store"
)

// FuzzReadJournal replays a byte stream as the daemon journal, the way
// NewDaemon reads it. It must never panic; every campaign it accepts must
// carry a daemon campaign ID and a lifecycle state, once each, in ID
// order; compacting the replay must keep each campaign's manifest and
// every distinct record line; and compaction must be a fixed point, so a
// restart over a compacted journal rebuilds the same table and stores.
func FuzzReadJournal(f *testing.F) {
	lines := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	queued := `{"id":"c000001","tenant":"default","program":"CP","scale":"tiny","dataset":0,"state":"queued","submitted_at":"2026-01-02T03:04:05Z"}`
	done := `{"id":"c000001","tenant":"default","program":"CP","scale":"tiny","dataset":0,"state":"done","submitted_at":"2026-01-02T03:04:05Z","started_at":"2026-01-02T03:04:06Z","finished_at":"2026-01-02T03:04:07Z","digest":"n=1 hangs=0\n"}`
	shard := `{"id":"c000002","tenant":"fleet","program":"SAD","scale":"quick","dataset":1,"shard":1,"shards":3,"state":"interrupted","submitted_at":"2026-01-02T03:04:05Z"}`
	man1 := "c000001\tmanifest\t" + `{"program":"CP","mode":3,"injections":4,"plan_hash":"00000000000000ab","scale":"sites=1 masks=1 bits=[1]"}`
	man2 := "c000002\tmanifest\t" + `{"program":"SAD","mode":3,"injections":6,"plan_hash":"00000000000000cd"}`
	rec1a := "c000001\t" + `{"idx":0,"id":"k0","outcome":1,"bits":1,"class":0}`
	rec1b := "c000001\t" + `{"idx":2,"id":"k2","outcome":4,"hang":true,"activated":true,"bits":1,"class":2}`
	rec2 := "c000002\t" + `{"idx":1,"id":"k1","outcome":0,"bits":2,"class":1,"timed_out":true}`
	// The negative cases of the journal tests: a torn final meta line, a
	// malformed interior line, a line naming no campaign, a bad ID, an
	// unknown state, a JSON null, an untagged or unknown campaign line, two
	// different manifests for one campaign.
	f.Add([]byte(queued + "\n" + done[:len(done)/2]))
	f.Add(lines(queued, "{", done))
	f.Add(lines(queued, `{"state":"done"}`))
	f.Add(lines(`{"id":"../c000001","state":"queued"}`))
	f.Add(lines(`{"id":"c000001","state":"paused"}`))
	f.Add(lines("null"))
	f.Add(lines(queued, "c000001 no tab"))
	f.Add(lines(queued, "c000001\tnot a record"))
	f.Add(lines(queued, man1, strings.Replace(man1, "CP", "SAD", 1)))
	// Well-formed journals: a campaign's submit, manifest, records and
	// done lines; two campaigns' lines interleaved, with a record appended
	// twice and the store lines of a campaign whose submit line never
	// landed; the same with a torn final record line.
	f.Add(lines(queued, man1, rec1a, rec1b, done))
	interleaved := lines(queued, shard, man2, man1, rec1a, rec2, rec1b, rec2,
		"c000009\tmanifest\t{}", "c000009\t"+`{"idx":0}`, done)
	f.Add(interleaved)
	f.Add(append(interleaved[:len(interleaved):len(interleaved)], rec1b[:len(rec1b)-7]...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		ms, j, err := parseJournal("journal.jsonl", raw)
		if err != nil {
			return
		}
		for i, m := range ms {
			if _, ok := campaignNumber(m.ID); !ok {
				t.Fatalf("accepted campaign ID %q", m.ID)
			}
			if !m.State.known() {
				t.Fatalf("accepted %s in unknown state %q", m.ID, m.State)
			}
			if i > 0 && ms[i-1].ID >= m.ID {
				t.Fatalf("replay not one campaign per ID in ID order: %q then %q", ms[i-1].ID, m.ID)
			}
		}
		compact, err := compactJournal(ms, j)
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		again, j2, err := parseJournal("journal.jsonl", compact)
		if err != nil {
			t.Fatalf("compacted journal does not replay: %v\n%s", err, compact)
		}
		for _, m := range ms {
			if want, got := snapshotLines(j, m.ID), snapshotLines(j2, m.ID); want != got {
				t.Fatalf("compaction changed %s's store:\n%s\nthen\n%s", m.ID, want, got)
			}
		}
		twice, err := compactJournal(again, j2)
		if err != nil {
			t.Fatalf("compact again: %v", err)
		}
		if !bytes.Equal(twice, compact) {
			t.Fatalf("compaction is not a fixed point:\n%s\nthen\n%s", compact, twice)
		}
	})
}

// snapshotLines renders campaign id's store in j as its manifest and its
// distinct record lines, sorted: what compaction must keep.
func snapshotLines(j *store.Log, id string) string {
	m, raw, err := j.Snapshot(id)
	if err != nil {
		return err.Error()
	}
	seen := make(map[string]bool)
	var recs []string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line != "" && !seen[line] {
			seen[line] = true
			recs = append(recs, line)
		}
	}
	sort.Strings(recs)
	return strings.Join(append([]string{fmt.Sprintf("%+v\n", m)}, recs...), "")
}

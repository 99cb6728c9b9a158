package service

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJournal replays a byte stream as the daemon journal, the way
// NewDaemon reads it. It must never panic; every campaign it accepts must
// carry a daemon campaign ID and a lifecycle state, once each, in ID
// order; and compacting the replay must be a fixed point, so a restart
// over a compacted journal rebuilds the same table.
func FuzzReadJournal(f *testing.F) {
	lines := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	queued := `{"id":"c000001","tenant":"default","program":"CP","scale":"tiny","dataset":0,"state":"queued","submitted_at":"2026-01-02T03:04:05Z"}`
	done := `{"id":"c000001","tenant":"default","program":"CP","scale":"tiny","dataset":0,"state":"done","submitted_at":"2026-01-02T03:04:05Z","started_at":"2026-01-02T03:04:06Z","finished_at":"2026-01-02T03:04:07Z","digest":"n=1 hangs=0\n"}`
	shard := `{"id":"c000002","tenant":"fleet","program":"SAD","scale":"quick","dataset":1,"shard":1,"shards":3,"state":"interrupted","submitted_at":"2026-01-02T03:04:05Z"}`
	// The negative cases of the journal tests: a torn final line, a
	// malformed interior line, a line naming no campaign or an ID outside
	// the store root, an unknown state, a JSON null.
	f.Add([]byte(queued + "\n" + done[:len(done)/2]))
	f.Add(lines(queued, "{", done))
	f.Add(lines(queued, `{"state":"done"}`))
	f.Add(lines(`{"id":"../c000001","state":"queued"}`))
	f.Add(lines(`{"id":"c000001","state":"paused"}`))
	f.Add(lines("null"))
	// A well-formed journal: a campaign's submit and done lines, and a
	// shard left interrupted.
	f.Add(lines(queued, shard, done))

	f.Fuzz(func(t *testing.T, raw []byte) {
		ms, err := parseJournal("journal.jsonl", raw)
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
		compact := compactLines(t, ms)
		again, err := parseJournal("journal.jsonl", compact)
		if err != nil {
			t.Fatalf("compacted journal does not replay: %v\n%s", err, compact)
		}
		if got := compactLines(t, again); !bytes.Equal(got, compact) {
			t.Fatalf("compaction is not a fixed point:\n%s\nthen\n%s", compact, got)
		}
	})
}

// compactLines encodes ms the way openJournal compacts the journal.
func compactLines(t *testing.T, ms []meta) []byte {
	t.Helper()
	var buf []byte
	for _, m := range ms {
		var err error
		if buf, err = appendLine(buf, m); err != nil {
			t.Fatalf("encode replayed %+v: %v", m, err)
		}
	}
	return buf
}

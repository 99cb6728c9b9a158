package store

import (
	"strings"
	"testing"
)

// readRecordsSeed is one seed of FuzzReadRecords: a shard log and the
// plan and shard it is read against.
type readRecordsSeed struct {
	log                       []byte
	injections, shard, shards int
}

// readRecordsSeeds are the negative cases of store_test.go — a torn final
// line, a malformed interior line, out-of-plan indices, another shard's
// index, and an in-file duplicate that disagrees — and a well-formed log
// with a byte-equal duplicate.
var readRecordsSeeds = func() []readRecordsSeed {
	lines := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	good := `{"idx":0,"id":"a","outcome":1,"bits":1}`
	return []readRecordsSeed{
		{[]byte(good + "\n" + `{"idx":2,"id":"c","outc`), 3, 0, 1},
		{lines(good, `{"idx":2,"id":"c","outc`, `{"idx":1,"id":"b","outcome":2,"bits":6}`), 3, 0, 1},
		{lines(good, `{"idx":99,"id":"z","outcome":1,"bits":1}`), 3, 0, 2},
		{lines(good, `{"idx":-1,"id":"z","outcome":1,"bits":1}`), 3, 0, 2},
		{lines(good, `{"idx":1,"id":"b","outcome":1,"bits":1}`), 3, 0, 2},
		{lines(good, `{"idx":0,"id":"a","outcome":2,"bits":1}`), 6, 0, 1},
		{lines(good, `{"idx":2,"id":"c","outcome":4,"hang":true,"bits":6,"class":3,"timed_out":true}`, good), 6, 0, 2},
	}
}()

// FuzzReadRecords decodes a byte stream as one shard's JSONL log of a
// plan, the way Open and Load read it. It must never panic, and every
// record it accepts must lie inside the plan and belong to the shard:
// counted by length, an out-of-plan or foreign record would stand in for
// an injection that never ran.
func FuzzReadRecords(f *testing.F) {
	for _, s := range readRecordsSeeds {
		f.Add(s.log, s.injections, s.shard, s.shards)
	}

	f.Fuzz(func(t *testing.T, raw []byte, injections, shard, shards int) {
		// Open validates the shard before it reads; the plan length is
		// whatever a manifest says.
		if shards < 1 || shards > 64 || shard < 0 || shard >= shards {
			return
		}
		recs, err := parseRecords("shard.jsonl", raw, injections, shard, shards)
		if err != nil {
			return
		}
		for idx, r := range recs {
			if idx != r.Idx {
				t.Fatalf("record %+v filed under index %d", r, idx)
			}
			if r.Idx < 0 || r.Idx >= injections {
				t.Fatalf("accepted record %+v outside the %d-injection plan", r, injections)
			}
			if r.Idx%shards != shard {
				t.Fatalf("accepted record %+v outside shard %d/%d", r, shard, shards)
			}
		}
	})
}

package store

import (
	"strings"
	"testing"
)

// readRecordsSeed is one seed of FuzzReadRecords: a store directory's log
// and the shard it is resumed as.
type readRecordsSeed struct {
	log           []byte
	shard, shards int
}

// readRecordsSeeds are the cases of store_test.go as one log each: two
// shards of a plan, a salvaged partial shard that agrees with its re-run,
// duplicates that disagree across tags and inside one, a torn final line,
// a tab inside a node's salvage tag, out-of-plan and another shard's
// indices, owner lines beside shards of two plans, and torn lines that a
// resumed writer ended with a newline.
var readRecordsSeeds = func() []readRecordsSeed {
	m := Manifest{Program: "CP", Mode: 3, Injections: 4, PlanHash: "00c0ffee00c0ffee"}
	other := m
	other.PlanHash = "deadbeefdeadbeef"
	rec := func(tag, r string) string { return tag + "\t" + r }
	lines := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	a := `{"idx":0,"id":"a","outcome":1,"bits":1}`
	b := `{"idx":1,"id":"b","outcome":2,"bits":1}`
	c := `{"idx":2,"id":"c","outcome":4,"hang":true,"bits":6,"class":3,"timed_out":true}`
	d := `{"idx":3,"id":"d","outcome":3,"bits":6}`
	s0, s1, salvage := ShardTag(0, 2), ShardTag(1, 2), ShardTag(0, 2)+".partial1.node-a"
	return []readRecordsSeed{
		{lines(manifestLine(s0, m), manifestLine(s1, m), rec(s0, a), rec(s1, b), rec(s0, c), rec(s1, d)), 0, 2},
		{lines(manifestLine(salvage, m), rec(salvage, a), manifestLine(s0, m), rec(s0, a), rec(s0, c)), 0, 2},
		{lines(manifestLine(s0, m), manifestLine(salvage, m), rec(s0, a), rec(salvage, `{"idx":0,"id":"a","outcome":3,"bits":1}`)), 0, 2},
		{lines(manifestLine(s0, m), rec(s0, a), rec(s0, `{"idx":0,"id":"a","outcome":2,"bits":1}`)), 0, 2},
		{append(lines(manifestLine(s0, m), rec(s0, a)), rec(s0, `{"idx":2,"id":"c","outc`)...), 0, 2},
		{lines(manifestLine(s0, m), rec(s0, a), "shard-0of2.partial1.no\tde\t"+c), 0, 2},
		{lines(manifestLine(s0, m), rec(s0, a), rec(s0, b), rec(s0, `{"idx":99,"id":"z","outcome":1,"bits":1}`)), 0, 2},
		{lines(`{"id":"c000001"}`, manifestLine(s0, m), rec(s0, a), manifestLine(s1, other), rec(s1, b)), 1, 2},
		{lines(manifestLine(s0, m), rec(s0, a), rec(s0, `{"idx":2,"id":"c","outc`), s0+"\tmani", rec(s0, c)), 0, 2},
	}
}()

// FuzzReadRecords decodes a byte stream as a store directory's log, the
// way Load merges every shard of it and Open resumes one. It must never
// panic. Every record the merge accepts must lie inside the plan, once, in
// order; every record a resume accepts must also belong to its shard:
// counted by length, an out-of-plan or foreign record would stand in for
// an injection that never ran.
func FuzzReadRecords(f *testing.F) {
	for _, s := range readRecordsSeeds {
		f.Add(s.log, s.shard, s.shards)
	}

	f.Fuzz(func(t *testing.T, raw []byte, shard, shards int) {
		if m, recs, err := loadLog(JournalFile, raw); err == nil {
			for i, r := range recs {
				if r.Idx < 0 || r.Idx >= m.Injections {
					t.Fatalf("merged record %+v outside the %d-injection plan", r, m.Injections)
				}
				if i > 0 && recs[i-1].Idx >= r.Idx {
					t.Fatalf("merged records out of order or repeated: %+v then %+v", recs[i-1], r)
				}
			}
		}
		// Open validates the shard before it reads; a shard with no
		// manifest yet has nothing to resume.
		if shards < 1 || shards > 64 || shard < 0 || shard >= shards {
			return
		}
		l, err := ReadLog(JournalFile, raw, nil)
		if err != nil {
			return
		}
		tag := ShardTag(shard, shards)
		c := l.camps[tag]
		if c == nil || c.manifest == nil {
			return
		}
		s, err := l.Open(tag, *c.manifest, shard, shards, true)
		if err != nil {
			return
		}
		for idx, r := range s.done {
			if idx != r.Idx {
				t.Fatalf("record %+v filed under index %d", r, idx)
			}
			if r.Idx < 0 || r.Idx >= c.manifest.Injections {
				t.Fatalf("resumed record %+v outside the %d-injection plan", r, c.manifest.Injections)
			}
			if r.Idx%shards != shard {
				t.Fatalf("resumed record %+v outside shard %d/%d", r, shard, shards)
			}
		}
	})
}

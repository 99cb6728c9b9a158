package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{Program: "CP", Mode: 3, Injections: 6, PlanHash: "00c0ffee00c0ffee", Scale: "sites=2 masks=3 bits=[1 6]"}
}

func TestStoreAppendAndResume(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	s, err := Open(dir, m, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Idx: i, ID: "id", Outcome: 1, Bits: 1, Class: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-launch without resume must refuse the non-empty log.
	if _, err := Open(dir, m, 0, 1, false); err == nil {
		t.Fatal("Open without resume accepted a non-empty shard log")
	}

	// Resume sees the three completed records and appends more.
	s, err = Open(dir, m, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed() != 3 {
		t.Fatalf("resumed Completed() = %d, want 3", s.Completed())
	}
	if _, ok := s.Done(2); !ok {
		t.Fatal("record 2 missing after resume")
	}
	if _, ok := s.Done(5); ok {
		t.Fatal("record 5 should not exist yet")
	}
	for i := 3; i < 6; i++ {
		if err := s.Append(Record{Idx: i, ID: "id", Outcome: 2, Bits: 6, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	man, recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man != m {
		t.Fatalf("loaded manifest %+v, want %+v", man, m)
	}
	if len(recs) != 6 || Missing(man, recs) != 0 {
		t.Fatalf("loaded %d records, missing %d", len(recs), Missing(man, recs))
	}
	for i, r := range recs {
		if r.Idx != i {
			t.Fatalf("records not sorted by idx: %v", recs)
		}
	}
}

func TestStoreManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	s, err := Open(dir, m, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	other := m
	other.PlanHash = "deadbeefdeadbeef"
	if _, err := Open(dir, other, 0, 1, true); err == nil {
		t.Fatal("Open accepted a directory holding a different campaign")
	}
}

func TestStoreToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	s, err := Open(dir, m, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(Record{Idx: 0, ID: "a", Outcome: 1, Bits: 1})
	s.Append(Record{Idx: 1, ID: "b", Outcome: 2, Bits: 6})
	s.Close()

	// Simulate a kill mid-append: a truncated final line.
	path := filepath.Join(dir, ShardFile(0, 1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, `{"idx":2,"id":"c","outc`...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, m, 0, 1, true)
	if err != nil {
		t.Fatalf("resume over truncated tail: %v", err)
	}
	if s.Completed() != 2 {
		t.Fatalf("Completed() = %d after truncated tail, want 2 (the in-flight record re-runs)", s.Completed())
	}
	// The re-run of the lost record appends cleanly after the garbage.
	if err := s.Append(Record{Idx: 2, ID: "c", Outcome: 1, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A truncated line mid-log is real corruption and must abort.
	if _, _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a log with an interior malformed line")
	}
}

func TestStoreShardsMerge(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	for shard := 0; shard < 2; shard++ {
		s, err := Open(dir, m, shard, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := shard; i < m.Injections; i += 2 {
			if err := s.Append(Record{Idx: i, ID: "id", Outcome: i % 5, Bits: 1}); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
	_, recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != m.Injections {
		t.Fatalf("merged %d records, want %d", len(recs), m.Injections)
	}
	for i, r := range recs {
		if r.Idx != i || r.Outcome != i%5 {
			t.Fatalf("merged record %d = %+v", i, r)
		}
	}
}

// writeShardLines writes a raw shard log under dir — the shape of a log
// fetched from another node by the fleet coordinator, which may carry
// any shard-*.jsonl name (canonical, or node-tagged partial salvage).
func writeShardLines(t *testing.T, dir, name string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMergeDedupesRedispatchedShard is the failover-idempotency
// case: node A ran part of a shard and died mid-append (truncated
// tail), the coordinator salvaged its partial log, and node B re-ran
// the whole shard. The overlapping records are byte-equal because
// execution is deterministic, so the merge must dedupe them — including
// the record A lost to the truncated tail, which only B holds.
func TestStoreMergeDedupesRedispatchedShard(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	m.Injections = 4
	s, err := Open(dir, m, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's records, completed normally elsewhere.
	s.Close()
	writeShardLines(t, dir, ShardFile(1, 2),
		`{"idx":1,"id":"b","outcome":2,"bits":1}`,
		`{"idx":3,"id":"d","outcome":3,"bits":6}`)

	// Node A's salvaged partial shard-0 log: one complete record, then a
	// truncated tail from the kill (no trailing newline — the append died
	// mid-line).
	partial := `{"idx":0,"id":"a","outcome":1,"bits":1}` + "\n" + `{"idx":2,"id":"c","outc`
	if err := os.WriteFile(filepath.Join(dir, "shard-0of2.partial.node-a.jsonl"), []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	// Node B's re-run of the full shard: same records (retries may
	// differ — node B retried an infrastructure error node A never saw).
	writeShardLines(t, dir, ShardFile(0, 2),
		`{"idx":0,"id":"a","outcome":1,"bits":1,"retries":1}`,
		`{"idx":2,"id":"c","outcome":4,"bits":6}`)

	man, recs, err := Load(dir)
	if err != nil {
		t.Fatalf("Load over redispatched shard: %v", err)
	}
	if len(recs) != 4 || Missing(man, recs) != 0 {
		t.Fatalf("merged %d records (missing %d), want 4 complete", len(recs), Missing(man, recs))
	}
	for i, r := range recs {
		if r.Idx != i {
			t.Fatalf("records not dense and sorted: %+v", recs)
		}
	}
}

// TestStoreMergeRejectsConflictingRecords: two shard logs claiming the
// same plan index with different outcomes mean the directory mixes
// campaigns (or one log is corrupt); the merge must refuse rather than
// silently keep one of them.
func TestStoreMergeRejectsConflictingRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testManifest(), 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeShardLines(t, dir, ShardFile(0, 2),
		`{"idx":0,"id":"a","outcome":1,"bits":1}`)
	writeShardLines(t, dir, "shard-0of2.partial.node-a.jsonl",
		`{"idx":0,"id":"a","outcome":3,"bits":1}`)
	if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "conflicting records") {
		t.Fatalf("Load over conflicting duplicates: %v, want a conflicting-records error", err)
	}

	// A conflicting duplicate inside one log is equally corrupt.
	dir2 := t.TempDir()
	s, err = Open(dir2, testManifest(), 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeShardLines(t, dir2, ShardFile(0, 1),
		`{"idx":0,"id":"a","outcome":1,"bits":1}`,
		`{"idx":0,"id":"a","outcome":2,"bits":1}`)
	if _, _, err := Load(dir2); err == nil || !strings.Contains(err.Error(), "duplicate record") {
		t.Fatalf("Load over an in-file conflicting duplicate: %v, want a duplicate-record error", err)
	}
}

// TestRecordConflicts pins that every field participates in the conflict
// check.
func TestRecordConflicts(t *testing.T) {
	base := Record{Idx: 7, ID: "x", Outcome: 2, Hang: true, Bits: 6, Class: 3, TimedOut: true}
	if base.Conflicts(base) {
		t.Error("a record must not conflict with itself")
	}
	for _, mut := range []func(*Record){
		func(r *Record) { r.ID = "y" },
		func(r *Record) { r.Outcome = 3 },
		func(r *Record) { r.Hang = false },
		func(r *Record) { r.Activated = true },
		func(r *Record) { r.Bits = 1 },
		func(r *Record) { r.Class = 0 },
		func(r *Record) { r.TimedOut = false },
	} {
		other := base
		mut(&other)
		if !base.Conflicts(other) {
			t.Errorf("mutated record %+v must conflict with %+v", other, base)
		}
	}
}

func TestStoreInvalidShard(t *testing.T) {
	for _, tc := range []struct{ shard, shards int }{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := Open(t.TempDir(), testManifest(), tc.shard, tc.shards, false); err == nil {
			t.Errorf("Open accepted shard %d/%d", tc.shard, tc.shards)
		}
	}
}

func TestShardFileNaming(t *testing.T) {
	if got := ShardFile(1, 4); !strings.Contains(got, "1of4") {
		t.Fatalf("ShardFile = %q", got)
	}
}

// TestStoreRejectsIndicesOutsidePlan: a record whose index the plan does
// not hold — or, when a shard is resumed, one the shard does not own —
// must fail the read, naming file, line and index; counted by length it
// would stand in for an injection that never ran.
func TestStoreRejectsIndicesOutsidePlan(t *testing.T) {
	m := testManifest()
	m.Injections = 3
	for name, tc := range map[string]struct {
		line       string
		wantInLoad string
		wantInOpen string
	}{
		"past the plan": {`{"idx":99,"id":"z","outcome":1,"bits":1}`, "record for injection 99 is outside the 3-injection plan", "record for injection 99 is outside the 3-injection plan"},
		"negative":      {`{"idx":-1,"id":"z","outcome":1,"bits":1}`, "record for injection -1 is outside", "record for injection -1 is outside"},
		// Index 1 is in the plan, so a merge takes it from any log; only the
		// resume of shard 0/2 knows it is not that shard's.
		"another shard's": {`{"idx":1,"id":"b","outcome":1,"bits":1}`, "", "record for injection 1 does not belong to shard 0/2"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, m, 0, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			writeShardLines(t, dir, ShardFile(0, 2),
				`{"idx":0,"id":"a","outcome":1,"bits":1}`,
				tc.line)
			where := ShardFile(0, 2) + " line 2: "

			_, recs, err := Load(dir)
			switch {
			case tc.wantInLoad == "" && err != nil:
				t.Fatalf("Load: %v", err)
			case tc.wantInLoad == "" && Missing(m, recs) != 1:
				t.Fatalf("Load: missing = %d, want 1", Missing(m, recs))
			case tc.wantInLoad != "" && (err == nil || !strings.Contains(err.Error(), where+tc.wantInLoad)):
				t.Fatalf("Load: got %v, want an error holding %q", err, where+tc.wantInLoad)
			}
			if _, err := Open(dir, m, 0, 2, true); err == nil || !strings.Contains(err.Error(), where+tc.wantInOpen) {
				t.Fatalf("Open for resume: got %v, want an error holding %q", err, where+tc.wantInOpen)
			}
		})
	}
}

// TestStoreInMemory: with no directory the store keeps its records and
// touches no file.
func TestStoreInMemory(t *testing.T) {
	s, err := Open("", testManifest(), 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{1, 3} {
		if err := s.Append(Record{Idx: idx, ID: "id", Outcome: 2, Bits: 6}); err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := s.Done(3); !ok || r.Outcome != 2 || s.Completed() != 2 {
		t.Fatalf("Done(3) = %+v, %v; Completed() = %d", r, ok, s.Completed())
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("", testManifest(), 2, 2, false); err == nil {
		t.Error("Open accepted shard 2/2 for an in-memory store")
	}
}

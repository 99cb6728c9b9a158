package store

import (
	"errors"
	"io/fs"
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

// TestOpenFreshAndExistingDirs: a directory Open creates (here under a
// missing parent) is written without being read, while a directory that
// already exists is still checked — a foreign manifest, under any shard's
// tag, and a non-empty shard without resume are refused even when Open did
// not write them.
func TestOpenFreshAndExistingDirs(t *testing.T) {
	m := testManifest()
	fresh := filepath.Join(t.TempDir(), "a", "b", "campaign")
	s, err := Open(fresh, m, 1, 2, false)
	if err != nil {
		t.Fatalf("Open on a fresh nested dir: %v", err)
	}
	if err := s.Append(Record{Idx: 1, ID: "b", Outcome: 1, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if man, recs, err := Load(fresh); err != nil || man != m || len(recs) != 1 {
		t.Fatalf("Load of the fresh dir: %+v %v %v, want the manifest and one record", man, recs, err)
	}

	foreign := t.TempDir()
	writeJournal(t, foreign, "shard-1of2\tmanifest\t"+`{"program":"CP","mode":3,"injections":6,"plan_hash":"deadbeefdeadbeef"}`)
	if _, err := Open(foreign, m, 0, 1, true); err == nil || !strings.Contains(err.Error(), "holds a different campaign") {
		t.Fatalf("Open over a foreign manifest: %v, want it refused", err)
	}

	logged := t.TempDir()
	writeJournal(t, logged, manifestLine(ShardTag(0, 1), m), ShardTag(0, 1)+"\t"+`{"idx":0,"id":"a","outcome":1,"bits":1}`)
	if _, err := Open(logged, m, 0, 1, false); err == nil || !strings.Contains(err.Error(), "already holds 1 results") {
		t.Fatalf("Open without resume over a non-empty shard: %v, want it refused", err)
	}
}

// TestStoreConcurrentShardsOneDir: shards opened at the same time on one
// fresh directory, each by its own Open (its own file, as separate
// processes have), each write their manifest line and records to the one
// log, and Load merges them all.
func TestStoreConcurrentShardsOneDir(t *testing.T) {
	const shards = 32
	m := testManifest()
	m.Injections = 4 * shards
	dir := filepath.Join(t.TempDir(), "campaign")
	errs := make(chan error, shards)
	for shard := 0; shard < shards; shard++ {
		go func() {
			s, err := Open(dir, m, shard, shards, false)
			if err != nil {
				errs <- err
				return
			}
			for i := shard; i < m.Injections && err == nil; i += shards {
				err = s.Append(Record{Idx: i, ID: "id", Outcome: i % 5, Bits: 1})
			}
			if cerr := s.Close(); err == nil {
				err = cerr
			}
			errs <- err
		}()
	}
	for range shards {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	man, recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man != m || len(recs) != m.Injections || Missing(man, recs) != 0 {
		t.Fatalf("merged %d records of %+v, want all %d of %+v", len(recs), man, m.Injections, m)
	}
	for i, r := range recs {
		if r.Idx != i || r.Outcome != i%5 {
			t.Fatalf("merged record %d = %+v", i, r)
		}
	}
}

// TestStoreRefusesOldLayout: a directory of the older format — a
// manifest.json beside shard-IofN.jsonl logs — is refused by Open and Load
// with a message naming the file, never read as an empty store.
func TestStoreRefusesOldLayout(t *testing.T) {
	for _, name := range []string{"manifest.json", "shard-0of1.jsonl"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		want := filepath.Join(dir, name)
		if _, err := Open(dir, testManifest(), 0, 1, true); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Open over %s: %v, want a refusal naming it", name, err)
		}
		if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load over %s: %v, want a refusal naming it", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, JournalFile)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("refusing %s left a %s behind: %v", name, JournalFile, err)
		}
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
	path := filepath.Join(dir, JournalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, ShardTag(0, 1)+"\t"+`{"idx":2,"id":"c","outc`...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, m, 0, 1, true)
	if err != nil {
		t.Fatalf("resume over truncated tail: %v", err)
	}
	if s.Completed() != 2 {
		t.Fatalf("Completed() = %d after truncated tail, want 2 (the in-flight record re-runs)", s.Completed())
	}
	// The re-run of the lost record lands on a line of its own: the
	// resumed writer ended the torn line first, and readers skip it.
	if err := s.Append(Record{Idx: 2, ID: "c", Outcome: 1, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, recs, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after resuming over a torn tail: %v", err)
	}
	if len(recs) != 3 || recs[0].ID != "a" || recs[1].ID != "b" || recs[2].ID != "c" {
		t.Fatalf("Load = %+v, want records 0-2", recs)
	}
	// A second resume reads the same three records and appends after them.
	s, err = Open(dir, m, 0, 1, true)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if s.Completed() != 3 {
		t.Fatalf("Completed() = %d on the second resume, want 3", s.Completed())
	}
	s.Close()
	// A malformed line that does end in '}' is real corruption and must
	// abort.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(ShardTag(0, 1) + "\t" + `{"idx":3,"outcome":}` + "\n") //nolint:errcheck
	f.Close()                                                            //nolint:errcheck
	if _, _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a log with a malformed line")
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

// writeJournal appends raw lines to dir's log.
func writeJournal(t *testing.T, dir string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, JournalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(strings.Join(lines, "\n") + "\n"); err != nil {
		t.Fatal(err)
	}
}

// manifestLine is campaign tag's manifest line, without the newline.
func manifestLine(tag string, m Manifest) string {
	return strings.TrimSuffix(string(appendManifestLine(nil, tag, m)), "\n")
}

// appendSnapshot appends raw, a shard's record lines as the fleet
// coordinator fetches them, to dir's log under tag.
func appendSnapshot(t *testing.T, dir, tag string, m Manifest, raw string) {
	t.Helper()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendSnapshot(tag, m, []byte(raw)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMergeDedupesRedispatchedShard is the failover-idempotency
// case: node A ran part of a shard and died mid-append (truncated
// tail), the coordinator salvaged its partial lines, and node B re-ran
// the whole shard. The overlapping records are byte-equal because
// execution is deterministic, so the merge must dedupe them — including
// the record A lost to the truncated tail, which only B holds.
func TestStoreMergeDedupesRedispatchedShard(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	m.Injections = 4
	// Shard 1's records, completed normally elsewhere.
	appendSnapshot(t, dir, ShardTag(1, 2), m,
		`{"idx":1,"id":"b","outcome":2,"bits":1}`+"\n"+`{"idx":3,"id":"d","outcome":3,"bits":6}`+"\n")
	// Node A's salvaged partial shard-0 lines: one complete record, then a
	// truncated tail from the kill (no trailing newline — the append died
	// mid-line), which the append drops.
	appendSnapshot(t, dir, ShardTag(0, 2)+".partial1.node-a", m,
		`{"idx":0,"id":"a","outcome":1,"bits":1}`+"\n"+`{"idx":2,"id":"c","outc`)
	// Node B's re-run of the full shard: same records (retries may
	// differ — node B retried an infrastructure error node A never saw).
	appendSnapshot(t, dir, ShardTag(0, 2), m,
		`{"idx":0,"id":"a","outcome":1,"bits":1,"retries":1}`+"\n"+`{"idx":2,"id":"c","outcome":4,"bits":6}`+"\n")

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

// TestStoreMergeRejectsConflictingRecords: two shards claiming the same
// plan index with different outcomes, or of different plans, mean the
// directory mixes campaigns (or one log is corrupt); the merge must refuse
// rather than silently keep one of them.
func TestStoreMergeRejectsConflictingRecords(t *testing.T) {
	m := testManifest()
	dir := t.TempDir()
	appendSnapshot(t, dir, ShardTag(0, 2), m, `{"idx":0,"id":"a","outcome":1,"bits":1}`+"\n")
	appendSnapshot(t, dir, ShardTag(0, 2)+".partial1.node-a", m, `{"idx":0,"id":"a","outcome":3,"bits":1}`+"\n")
	if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "conflicting records") {
		t.Fatalf("Load over conflicting duplicates: %v, want a conflicting-records error", err)
	}

	// A conflicting duplicate inside one shard is equally corrupt.
	dir2 := t.TempDir()
	writeJournal(t, dir2, manifestLine(ShardTag(0, 1), m),
		ShardTag(0, 1)+"\t"+`{"idx":0,"id":"a","outcome":1,"bits":1}`,
		ShardTag(0, 1)+"\t"+`{"idx":0,"id":"a","outcome":2,"bits":1}`)
	if _, _, err := Load(dir2); err == nil || !strings.Contains(err.Error(), "duplicate record") {
		t.Fatalf("Load over an in-shard conflicting duplicate: %v, want a duplicate-record error", err)
	}

	// Shards of two plans never merge, even with no index in common.
	dir3 := t.TempDir()
	other := m
	other.PlanHash = "deadbeefdeadbeef"
	appendSnapshot(t, dir3, ShardTag(0, 2), m, `{"idx":0,"id":"a","outcome":1,"bits":1}`+"\n")
	appendSnapshot(t, dir3, ShardTag(1, 2), other, `{"idx":1,"id":"b","outcome":1,"bits":1}`+"\n")
	if _, _, err := Load(dir3); err == nil || !strings.Contains(err.Error(), "holds two campaigns") {
		t.Fatalf("Load over shards of two plans: %v, want them refused", err)
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

// TestStoreRejectsIndicesOutsidePlan: a record whose index the plan does
// not hold — or, when a shard is resumed, one the shard does not own —
// must fail the read, naming shard, line and index; counted by length it
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
			writeJournal(t, dir, manifestLine(ShardTag(0, 2), m),
				ShardTag(0, 2)+"\t"+`{"idx":0,"id":"a","outcome":1,"bits":1}`,
				ShardTag(0, 2)+"\t"+tc.line)
			where := ShardTag(0, 2) + " line 2: "

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

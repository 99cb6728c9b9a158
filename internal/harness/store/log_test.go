package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLogCampaignsShareOneFile: two campaigns' stores and the owner's own
// lines interleave in one file. Each campaign reads back exactly the record
// lines a directory store of the same appends holds; a campaign that runs
// alone is one extent; a reopen resumes from the records, and compaction
// keeps every campaign's store while dropping a torn final line.
func TestLogCampaignsShareOneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	l, err := CreateLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	own := func(line string) {
		t.Helper()
		if err := l.Append(func(b []byte) ([]byte, error) { return append(b, line+"\n"...), nil }); err != nil {
			t.Fatal(err)
		}
	}
	m := testManifest()
	dir := t.TempDir()
	ds, err := Open(dir, m, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	own(`{"id":"a"}`)
	a, err := l.Open("a", m, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Open("b", m, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range []int{1, 5, 3} {
		r := Record{Idx: idx, ID: "k", Outcome: i, Bits: 1, Class: 2, Hang: i == 1}
		for _, s := range []*Store{a, ds} {
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Append(Record{Idx: idx - 1, ID: "j", Outcome: 1}); err != nil {
			t.Fatal(err)
		}
	}
	own(`{"id":"b"}`)
	for _, idx := range []int{1, 3} { // b runs alone: its lines are one extent
		if err := b.Append(Record{Idx: idx, ID: "j", Outcome: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(l.camps["a"].extents); n != 3 {
		t.Errorf("a interleaved with b in 3 runs holds %d extents", n)
	}
	if n := len(l.camps["b"].extents); n != 4 {
		t.Errorf("b in 3 interleaved runs and one run alone holds %d extents", n)
	}

	raw, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	dl, err := ReadLog(dir, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := dl.Snapshot(ShardTag(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	check := func(l *Log, when string) {
		t.Helper()
		man, got, err := l.Snapshot("a")
		if err != nil {
			t.Fatal(err)
		}
		if man != m || string(got) != string(want) {
			t.Fatalf("%s: snapshot of a is %+v\n%s\nwant the directory store's\n%s", when, man, got, want)
		}
		if _, _, err := l.Snapshot("c"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: snapshot of a campaign that never ran: %v, want not-exist", when, err)
		}
	}
	check(l, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(Record{Idx: 7}); err == nil {
		t.Fatal("append to a closed log succeeded")
	}

	// A torn final line, then a replay: the owner's lines come back in
	// order, and compaction writes each campaign's manifest and records
	// after the line the owner gives it.
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	raw = append(raw, "a\t{\"idx\":7,"...)
	var owned []string
	r, err := ReadLog(path, raw, func(n int, line []byte) error {
		owned = append(owned, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(owned, " "); got != `{"id":"a"} {"id":"b"}` {
		t.Fatalf("owner's lines %s", got)
	}
	check(r, "replayed")
	var compact []byte
	for _, tag := range []string{"a", "b"} {
		compact = append(compact, `{"id":"`+tag+`"}`+"\n"...)
		if compact, err = r.AppendCampaign(compact, tag); err != nil {
			t.Fatal(err)
		}
	}
	if l, err = CreateLog(path, compact); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l, "compacted")
	if n := len(l.camps["a"].extents); n != 1 {
		t.Errorf("compacted a holds %d extents, want 1", n)
	}

	// Resume: without it a campaign with records is refused; with it the
	// records load, and a different plan is refused either way.
	if _, err := l.Open("b", m, 0, 1, false); err == nil {
		t.Fatal("Open without resume accepted a campaign with records")
	}
	other := m
	other.PlanHash = "ffffffffffffffff"
	if _, err := l.Open("b", other, 0, 1, true); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("Open with another plan: %v", err)
	}
	b, err = l.Open("b", m, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.Completed() != 5 {
		t.Fatalf("resumed b holds %d records, want 5", b.Completed())
	}
	if _, recs, err := l.Load("b"); err != nil || len(recs) != 5 || recs[0].Idx != 0 || recs[4].Idx != 4 {
		t.Fatalf("Load(b) = %v, %v", recs, err)
	}
}

// TestAppendSnapshotRefusesBadTags: a salvage tag carries a node's name
// from the command line; one that would not read back as a tag — a tab or
// newline inside, or the '{' of an owner's line — is refused, not written.
func TestAppendSnapshotRefusesBadTags(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := []byte(`{"idx":0,"id":"a","outcome":1,"bits":1}` + "\n")
	for _, tag := range []string{"", "shard-0of1.partial1.no\tde", "shard-0of1.partial1.no\nde", "{node}"} {
		if err := l.AppendSnapshot(tag, testManifest(), rec); err == nil {
			t.Errorf("AppendSnapshot under %q succeeded", tag)
		}
	}
	if err := l.AppendSnapshot("shard-0of1.partial1.http://node-a:8345", testManifest(), rec); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := Load(dir); err != nil || len(recs) != 1 {
		t.Fatalf("Load after the refusals: %v, %v; want the one good record", recs, err)
	}
}

// TestOpenLogEndsTornTail: a log whose last line is torn, opened to
// append, gets a newline before its next line, and the index's extents
// are the offsets the lines really landed at in the file.
func TestOpenLogEndsTornTail(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	tag := ShardTag(0, 1)
	path := filepath.Join(dir, JournalFile)
	torn := manifestLine(tag, m) + "\n" + tag + "\t" + `{"idx":0,"id":"a","outcome":1,"bits":1}` + "\n" + tag + "\t" + `{"idx":1,"id":"b","out`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Open(tag, m, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed() != 1 {
		t.Fatalf("resumed %d records over a torn tail, want 1", s.Completed())
	}
	if err := s.Append(Record{Idx: 1, ID: "b", Outcome: 2, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), torn+"\n") {
		t.Fatalf("the torn line was not ended before the next line:\n%s", raw)
	}
	c := l.camps[tag]
	var got string
	for _, e := range c.extents {
		got += string(raw[e.off : e.off+e.n])
	}
	want := tag + "\t" + `{"idx":0,"id":"a","outcome":1,"bits":1}` + "\n" + tag + "\t" + `{"idx":1,"id":"b","outcome":2,"bits":1,"class":0}` + "\n"
	if got != want {
		t.Fatalf("extents read\n%q\nfrom the file, want\n%q", got, want)
	}
}

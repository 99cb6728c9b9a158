package store

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRecordsV1Golden reads a log json.Marshal wrote, before the store had
// its own codec: every combination of the omitempty flags, and one line
// of a log older still, with the "retries" field Record no longer has.
// The log must read to the same records, and every line of the current
// format must re-encode byte for byte.
func TestRecordsV1Golden(t *testing.T) {
	raw, err := os.ReadFile("testdata/records-v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Idx: 0, ID: "7:-3:deadbeef:n4:p", Outcome: 0, Bits: 1, Class: 0},
		{Idx: 1, ID: "0:0:00000001", Outcome: 1, Hang: true, Bits: 6, Class: 1},
		{Idx: 2, ID: "123:456789:ffffffff", Outcome: 2, Activated: true, Bits: 32, Class: 2},
		{Idx: 3, ID: "12:9:80000000:p", Outcome: 3, Hang: true, Activated: true, Bits: 1, Class: 3},
		{Idx: 4, ID: "3:1024:00ff00ff:n2", Outcome: 4, Bits: 6, Class: 0, TimedOut: true},
		{Idx: 5, ID: "7:-3:deadbeef:n4:p", Outcome: 0, Hang: true, Bits: 32, Class: 1, TimedOut: true},
		{Idx: 6, ID: "0:0:00000001", Outcome: 1, Activated: true, Bits: 1, Class: 2, TimedOut: true},
		{Idx: 7, ID: "123:456789:ffffffff", Outcome: 2, Hang: true, Activated: true, Bits: 6, Class: 3, TimedOut: true},
		{Idx: 8, ID: "5:77:00010000", Outcome: 3, Activated: true, Bits: 1, Class: 2}, // "retries":1
	}
	got, err := parseRecords("records-v1.jsonl", raw, len(want), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for _, w := range want {
		if got[w.Idx] != w {
			t.Errorf("record %d: got %+v, want %+v", w.Idx, got[w.Idx], w)
		}
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i, line := range lines {
		if strings.Contains(line, `"retries"`) {
			continue
		}
		if enc := appendRecord(nil, want[i]); string(enc) != line {
			t.Errorf("line %d re-encodes as\n%s\nwant\n%s", i+1, enc, line)
		}
	}
}

// TestRecordCodecAllocs pins the per-record cost of the store's codec:
// encoding into a reused buffer allocates nothing, and decoding a line of
// the current format allocates the ID string alone.
func TestRecordCodecAllocs(t *testing.T) {
	r := Record{Idx: 12345, ID: "7:-3:deadbeef:n4:p", Outcome: 3, Hang: true, Activated: true, Bits: 6, Class: 2, TimedOut: true}
	buf := appendRecord(nil, r)
	if n := testing.AllocsPerRun(100, func() { buf = appendRecord(buf[:0], r) }); n != 0 {
		t.Errorf("appendRecord into a reused buffer: %v allocations, want 0", n)
	}
	line := appendRecord(nil, r)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(line); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decodeRecord of %s: %v allocations, want at most 1", line, n)
	}
}

// FuzzRecordCodec holds the store's codec to encoding/json, the encoder
// that defines the log format, in both directions: appendRecord of any
// record writes exactly json.Marshal's bytes, and decodeRecord of any
// line fails where json.Unmarshal fails and otherwise gives its record.
func FuzzRecordCodec(f *testing.F) {
	add := func(line string) { f.Add([]byte(line), 0, "", 0, false, false, 0, 0, false) }
	for _, s := range readRecordsSeeds {
		for _, line := range strings.Split(string(s.log), "\n") {
			add(line)
		}
	}
	add(`{"idx":0,"id":"a","outcome":1,"bits":1,"retries":1}`)
	add(`{"idx":1,"id":"a\"<b>\u2028\ufffd\n","outcome":1,"bits":1}`)
	add(`{"IDX":1,"Id":"a","outcome":1,"bits":1}`)
	add(`{"id\u0078":1,"id":"a","outcome":1,"bits":1}`)
	add(` { "idx" : 3 , "outcome":-0,"bits":1e1 } `)
	add(`{"x":}`)
	f.Add([]byte(nil), 7, "7:-3:deadbeef:n4:p", 4, true, true, 32, 3, true)
	f.Add([]byte(nil), -1, "a\"\\<>&\x00\x1f\x7f\u2028\u2029\xff", -9, false, true, 0, -1, false)

	f.Fuzz(func(t *testing.T, line []byte, idx int, id string, outcome int, hang, activated bool, bits, class int, timedOut bool) {
		r := Record{Idx: idx, ID: id, Outcome: outcome, Hang: hang, Activated: activated, Bits: bits, Class: class, TimedOut: timedOut}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("appendRecord(%+v) =\n%s\njson.Marshal =\n%s", r, got, want)
		}

		got, gotErr := decodeRecord(line)
		var ref Record
		refErr := json.Unmarshal(line, &ref)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("decodeRecord(%q) error %v, json.Unmarshal error %v", line, gotErr, refErr)
		}
		if gotErr == nil && got != ref {
			t.Fatalf("decodeRecord(%q) = %+v, json.Unmarshal = %+v", line, got, ref)
		}
	})
}

package procexec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{Type: FrameRun, ID: "inj-7", Payload: []byte(`{"x":1}`), Seq: 3}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Seq != in.Seq || string(out.Payload) != string(in.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
	// A second read on the drained stream is a clean EOF, not corruption.
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("drained stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader([]byte{0x00, 0x01}))
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated header must be a distinct error, got %v", err)
	}
	if !strings.Contains(err.Error(), "header") {
		t.Errorf("error %q does not name the header", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	// A 100-byte frame whose writer died after 8 bytes, and the exact
	// bytes chaos ModeCorrupt writes before its worker exits.
	for _, data := range [][]byte{
		appendFrame(nil, &Frame{Type: FrameResult, ID: "inj-7", Payload: make([]byte, 93)})[:12],
		{0x00, 0x00, 0x01, 0x00, 'g', 'a', 'r', 'b'},
	} {
		_, err := ReadFrame(bytes.NewReader(data))
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("% x: truncated body must be a distinct error, got %v", data, err)
		}
		if !strings.Contains(err.Error(), "truncated frame body") {
			t.Errorf("% x: error %q does not name the body", data, err)
		}
	}
}

func TestReadFrameCorruptLength(t *testing.T) {
	for _, n := range []uint32{0, maxFrameLen + 1} {
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		buf.Write(hdr[:])
		if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "length") {
			t.Errorf("length %d: got %v, want corrupt-length error", n, err)
		}
	}
}

// corruptBodies are whole frames whose body does not decode, by what the
// error names.
var corruptBodies = []struct {
	name, want string
	body       []byte
}{
	{"garbage", "unknown frame type", []byte("garb")},
	{"type zero", "unknown frame type", []byte{0, 0, 0, 0}},
	{"type past the last", "unknown frame type", []byte{byte(FrameError) + 1, 0, 0, 0}},
	{"id past the body", "id length", []byte{byte(FrameRun), 5, 'a', 'b'}},
	{"id length unterminated", "id length", []byte{byte(FrameRun), 0x80}},
	{"seq missing", "sequence", []byte{byte(FrameHeartbeat), 1, 'a'}},
	{"seq past MaxInt32", "sequence", binary.AppendUvarint([]byte{byte(FrameHeartbeat), 0}, math.MaxInt32+1)},
	{"error past the body", "error length", []byte{byte(FrameError), 0, 0, 9, 'x'}},
}

func TestReadFrameGarbageBody(t *testing.T) {
	for _, tc := range corruptBodies {
		data := append(frameHeader(uint32(len(tc.body))), tc.body...)
		_, err := ReadFrame(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "corrupt frame body") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a corrupt-body error naming %q", tc.name, err, tc.want)
		}
	}
	// The largest sequence number still decodes.
	max := appendFrame(nil, &Frame{Type: FrameHeartbeat, ID: "a", Seq: math.MaxInt32})
	if f, err := ReadFrame(bytes.NewReader(max)); err != nil || f.Seq != math.MaxInt32 {
		t.Errorf("Seq MaxInt32: %+v, %v", f, err)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: header and body leave in one write, so a
// frame costs the worker one syscall.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, &Frame{Type: FrameResult, ID: "inj-7", Payload: []byte(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame made %d writes, want 1", w.writes)
	}
	if f, err := ReadFrame(&w.Buffer); err != nil || f.ID != "inj-7" {
		t.Fatalf("ReadFrame: %+v, %v", f, err)
	}
}

// frameHeader is a bare length prefix.
func frameHeader(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// FuzzReadFrame decodes a byte stream as a run of frames through a
// bufio.Reader, the way both ends read. It must never panic, a frame must
// never allocate much past maxFrameLen whatever its length prefix claims,
// and every frame it decodes must re-encode to a fixpoint: decoding the
// encoding and encoding again gives the same bytes and the same fields.
func FuzzReadFrame(f *testing.F) {
	// The negative cases above.
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 'g', 'a', 'r', 'b'})
	f.Add(frameHeader(0))
	f.Add(frameHeader(maxFrameLen + 1))
	for _, tc := range corruptBodies {
		f.Add(append(frameHeader(uint32(len(tc.body))), tc.body...))
	}
	// A well-formed run of frames, then the same run torn mid-frame.
	var run []byte
	for _, fr := range []*Frame{
		{Type: FrameRun, ID: "7:-3:deadbeef:n4:p", Payload: []byte{2, 'C', 'P', 0, 6}},
		{Type: FrameHeartbeat, ID: "7:-3:deadbeef:n4:p", Seq: 3},
		{Type: FrameResult, ID: "7:-3:deadbeef:n4:p", Payload: []byte{4, 3}},
		{Type: FrameError, ID: "inj-7", Error: "boom"},
	} {
		run = appendFrame(run, fr)
	}
	f.Add(run)
	f.Add(run[:len(run)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		for {
			runtime.ReadMemStats(&before)
			fr, err := ReadFrame(r)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxFrameLen+64*uint64(len(data))+1<<20 {
				t.Fatalf("one frame of a %d-byte stream allocated %d bytes", len(data), alloc)
			}
			if err != nil {
				return
			}
			enc := appendFrame(nil, fr)
			again, err := ReadFrame(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			enc2 := appendFrame(nil, again)
			if !bytes.Equal(enc, enc2) || again.Type != fr.Type || again.ID != fr.ID || again.Error != fr.Error || again.Seq != fr.Seq || !bytes.Equal(again.Payload, fr.Payload) {
				t.Fatalf("frame does not re-encode equal:\n%q\n%q", enc, enc2)
			}
		}
	})
}

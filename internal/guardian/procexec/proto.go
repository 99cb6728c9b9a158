// Package procexec is the OS layer of the paper's guardian (Section VI,
// Fig. 11): a supervised worker-subprocess executor. The in-process
// guardian maps the paper's fork/SIGCHLD/kill onto function calls; this
// package restores real process isolation, so a panic, runaway loop or
// OOM inside the supervised computation kills one worker process — never
// the campaign.
//
// The pieces, mapped onto the paper's primitives:
//
//   - fork/exec → Supervisor spawns the worker argv in its own process
//     group (Setpgid), so a kill reaches every descendant;
//   - the FT library's IPC execution-time reports → length-prefixed binary
//     frames on the worker's stdin/stdout: a pipelined run of run frames
//     in, written ahead of their results, and one result frame per request
//     out, in request order;
//   - SIGCHLD → the supervisor's frame reader observing EOF and Wait
//     classifying the exit (signal/non-zero status → WorkerCrashError);
//   - the execution-time watchdog → a per-request deadline the caller
//     derives from the profiled clean runtime (guardian.HangDeadline's rule,
//     applied in harness), the supervisor's only clock: no result by the
//     deadline, whether the worker computes or has gone silent, is a
//     WorkerHangError;
//   - restart-on-failure → guardian.BackoffPolicy-paced respawns, bounded
//     by MaxRestarts.
//
// The chaos subpackage injects deterministic worker failures so the
// containment is continuously proven by tests and scripts/chaos_smoke.sh.
package procexec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FrameType says what a frame carries.
type FrameType uint8

// Frame types. Zero is not a frame type, so a zeroed body never decodes.
const (
	// FrameRun carries a request from supervisor to worker.
	FrameRun FrameType = iota + 1
	// FrameResult carries the worker's response payload.
	FrameResult
	// FrameError reports a handler failure that is not a process death
	// (the worker stays alive and serves the next request).
	FrameError
)

func (t FrameType) String() string {
	switch t {
	case FrameRun:
		return "run"
	case FrameResult:
		return "result"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// Frame is one protocol message. Frames travel as a 4-byte big-endian
// length prefix followed by the body, so a reader can tell a cleanly
// closed stream from a frame truncated mid-write by a dying worker. The
// body is the type byte, the uvarint-prefixed ID, the uvarint-prefixed
// Error, then the payload to the end of the body. Both ends are the same
// binary, so the layout has no version.
type Frame struct {
	Type FrameType
	// ID echoes the request identity so a late frame from a killed
	// request is never attributed to its successor.
	ID string
	// Payload is the opaque request or response body.
	Payload []byte
	// Error carries a FrameError description.
	Error string
}

// maxFrameLen bounds a frame body. Real frames are tiny (a run frame is
// under a hundred bytes); a length prefix beyond this is protocol
// corruption, not a request to allocate gigabytes.
const maxFrameLen = 16 << 20

// WriteFrame writes one length-prefixed frame in a single write, so the
// header and body of a frame never travel in separate pipe writes.
func WriteFrame(w io.Writer, f *Frame) error {
	if _, err := w.Write(appendFrame(nil, f)); err != nil {
		return fmt.Errorf("procexec: write frame: %w", err)
	}
	return nil
}

// appendFrame appends f's length-prefixed encoding to dst, so a run of
// frames can leave in one write.
func appendFrame(dst []byte, f *Frame) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(f.Type))
	dst = binary.AppendUvarint(dst, uint64(len(f.ID)))
	dst = append(dst, f.ID...)
	dst = binary.AppendUvarint(dst, uint64(len(f.Error)))
	dst = append(dst, f.Error...)
	dst = append(dst, f.Payload...)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// ReadFrame reads one length-prefixed frame; both ends read their stream
// through a bufio.Reader, so a frame costs no read syscall of its own when
// its peer wrote several at once. io.EOF is returned verbatim
// on a clean close (stream ended between frames); any partial read or
// undecodable body is a distinct error, because it means the peer died
// mid-write or corrupted the stream.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("procexec: truncated frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("procexec: corrupt frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("procexec: truncated frame body: %w", err)
	}
	f, err := decodeFrame(body)
	if err != nil {
		return nil, fmt.Errorf("procexec: corrupt frame body: %w", err)
	}
	return f, nil
}

// decodeFrame parses a frame body; the payload aliases body.
func decodeFrame(body []byte) (*Frame, error) {
	f := &Frame{Type: FrameType(body[0])}
	if f.Type < FrameRun || f.Type > FrameError {
		return nil, fmt.Errorf("unknown frame type %#02x", body[0])
	}
	rest := body[1:]
	id, rest, err := lenPrefixed(rest, "id")
	if err != nil {
		return nil, err
	}
	msg, rest, err := lenPrefixed(rest, "error")
	if err != nil {
		return nil, err
	}
	f.ID, f.Error, f.Payload = string(id), string(msg), rest
	return f, nil
}

// lenPrefixed splits a uvarint-prefixed field named what off the front of b.
func lenPrefixed(b []byte, what string) (field, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, fmt.Errorf("%s length runs past the frame body", what)
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

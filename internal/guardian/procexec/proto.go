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
//   - the FT library's IPC execution-time reports → length-prefixed JSON
//     frames on the worker's stdin/stdout: one run frame in, periodic
//     heartbeat frames and one result frame out;
//   - SIGCHLD → the supervisor's frame reader observing EOF and Wait
//     classifying the exit (signal/non-zero status → WorkerCrashError);
//   - the execution-time watchdog → a per-request deadline the caller
//     derives from the profiled clean runtime (guardian.Watchdog's rule,
//     applied in harness) plus a heartbeat-miss window (→ WorkerHangError);
//   - restart-on-failure → guardian.BackoffPolicy-paced respawns, bounded
//     by MaxRestarts.
//
// The chaos subpackage injects deterministic worker failures so the
// containment is continuously proven by tests and scripts/chaos_smoke.sh.
package procexec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Frame types.
const (
	// FrameRun carries a request from supervisor to worker.
	FrameRun = "run"
	// FrameResult carries the worker's response payload.
	FrameResult = "result"
	// FrameHeartbeat is the worker's periodic liveness report while a
	// request is executing.
	FrameHeartbeat = "heartbeat"
	// FrameError reports a handler failure that is not a process death
	// (the worker stays alive and serves the next request).
	FrameError = "error"
)

// Frame is one protocol message. Frames travel as a 4-byte big-endian
// length prefix followed by the JSON body, so a reader can tell a cleanly
// closed stream from a frame truncated mid-write by a dying worker.
type Frame struct {
	Type string `json:"type"`
	// ID echoes the request identity so a late frame from a killed
	// request is never attributed to its successor.
	ID string `json:"id,omitempty"`
	// Payload is the opaque request or response body.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Error carries a FrameError description.
	Error string `json:"error,omitempty"`
	// Seq numbers heartbeats within one request.
	Seq int `json:"seq,omitempty"`
}

// maxFrameLen bounds a frame body. Real frames are tiny (a result payload
// is a few hundred bytes); a length prefix beyond this is protocol
// corruption, not a request to allocate gigabytes.
const maxFrameLen = 16 << 20

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, f *Frame) error {
	body, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("procexec: encode frame: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("procexec: write frame: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("procexec: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame. io.EOF is returned verbatim
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
	f := &Frame{}
	if err := json.Unmarshal(body, f); err != nil {
		return nil, fmt.Errorf("procexec: corrupt frame body: %w", err)
	}
	return f, nil
}

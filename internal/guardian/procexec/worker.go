package procexec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"hauberk/internal/guardian/procexec/chaos"
)

// ServeOptions tunes the worker loop.
type ServeOptions struct {
	// Chaos, when non-nil, injects deterministic failures keyed by the
	// per-process request sequence number (see the chaos package).
	Chaos *chaos.Plan
}

// Serve runs the worker side of the protocol: read run frames from in,
// execute them through h one at a time, in arrival order, and write each
// result frame to out as soon as it is ready, until in reaches EOF (the
// supervisor closed stdin → clean exit). The supervisor may write a whole
// run of requests ahead of their results; they wait, unread, in the pipe
// and in Serve's read buffer. The worker sends nothing while a request
// runs: the supervisor's request deadline is what tells a slow request
// from a hung one.
//
// Serve is what `hauberk-run -worker` executes with os.Stdin/os.Stdout.
// It must own out exclusively — any other write to the stream corrupts
// the framing (which the supervisor would classify as a crash).
//
// h executes one request payload and returns the response payload. A
// returned error is reported as a FrameError and the worker keeps serving
// — it is an application failure, not a process death. A panic is
// deliberately NOT recovered: the process dies with a stack trace and the
// supervisor classifies the crash, which is the entire point of running
// the computation out-of-process. h may take any byte-slice type, so a
// handler written against json.RawMessage serves unchanged.
func Serve[B ~[]byte](in io.Reader, out io.Writer, h func(id string, payload B) (B, error), opts ServeOptions) error {
	r := bufio.NewReader(in)
	for seq := 0; ; seq++ {
		req, err := ReadFrame(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if req.Type != FrameRun {
			return fmt.Errorf("procexec: worker got unexpected %q frame", req.Type)
		}

		switch opts.Chaos.Worker(seq) {
		case chaos.ModeKill:
			// Die with no goodbye, taking the whole process group.
			killOwnGroup()
		case chaos.ModeStall:
			// Fall silent: no result, ever. Only the supervisor's request
			// deadline can see this; it will kill the group. (Sleeping,
			// not select{}: the runtime's deadlock detector would
			// otherwise turn the hang into a tidy crash.)
			block()
		case chaos.ModeCorrupt:
			// A frame truncated mid-write by a dying process: emit a
			// plausible length prefix with a garbage half-body and exit.
			out.Write([]byte{0x00, 0x00, 0x01, 0x00, 'g', 'a', 'r', 'b'}) //nolint:errcheck
			return errors.New("procexec: chaos corrupt frame injected")
		case chaos.ModePanic:
			panic(fmt.Sprintf("chaos: injected worker panic (request seq %d)", seq))
		}

		payload, herr := h(req.ID, B(req.Payload))
		resp := &Frame{Type: FrameResult, ID: req.ID, Payload: []byte(payload)}
		if herr != nil {
			resp = &Frame{Type: FrameError, ID: req.ID, Error: herr.Error()}
		}
		if err := WriteFrame(out, resp); err != nil {
			return err
		}
	}
}

// killOwnGroup SIGKILLs the calling process's process group — the worker
// plus anything it spawned — emulating the hardest possible crash.
func killOwnGroup() {
	pgid, err := syscall.Getpgid(os.Getpid())
	if err == nil {
		syscall.Kill(-pgid, syscall.SIGKILL) //nolint:errcheck
	}
	syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck
	block()                                    // unreachable; SIGKILL cannot be handled
}

// block parks the calling goroutine forever without tripping the Go
// runtime's all-goroutines-asleep deadlock detector (which would convert
// an injected hang into a crash).
func block() {
	for {
		time.Sleep(time.Hour)
	}
}

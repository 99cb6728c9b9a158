package procexec

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"hauberk/internal/guardian/procexec/chaos"
)

// DefaultHeartbeat is the interval at which a worker emits heartbeat
// frames while a request executes. The supervisor's miss window is a
// multiple of this (Config.HeartbeatMisses).
const DefaultHeartbeat = 25 * time.Millisecond

// Handler executes one request payload and returns the response payload.
// A returned error is reported as a FrameError and the worker keeps
// serving — it is an application failure, not a process death. A panic is
// deliberately NOT recovered: the process dies with a stack trace and the
// supervisor classifies the crash, which is the entire point of running
// the computation out-of-process.
type Handler func(id string, payload json.RawMessage) (json.RawMessage, error)

// ServeOptions tunes the worker loop.
type ServeOptions struct {
	// Heartbeat is the liveness interval (default DefaultHeartbeat).
	Heartbeat time.Duration
	// Chaos, when non-nil, injects deterministic failures keyed by the
	// per-process request sequence number (see the chaos package).
	Chaos *chaos.Plan
}

// Serve runs the worker side of the protocol: read run frames from in,
// execute them through h one at a time, in arrival order, with heartbeats
// flowing, and write each result frame to out as soon as it is ready,
// until in reaches EOF (the supervisor closed stdin → clean exit). The
// supervisor may write a whole run of requests ahead of their results;
// they wait, unread, in the pipe and in Serve's read buffer.
//
// Serve is what `hauberk-run -worker` executes with os.Stdin/os.Stdout.
// It must own out exclusively — any other write to the stream corrupts
// the framing (which the supervisor would classify as a crash).
func Serve(in io.Reader, out io.Writer, h Handler, opts ServeOptions) error {
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	var (
		wmu   sync.Mutex // serializes frames on out; guards cur and beats
		cur   string     // the request in progress; "" between requests
		beats int        // heartbeats sent for cur
	)
	// One heartbeat goroutine for the worker's life beats the request in
	// progress. A result is written under wmu after cur is cleared, so no
	// heartbeat of a request follows its result.
	done := make(chan struct{})
	defer close(done)
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			wmu.Lock()
			var err error
			if cur != "" {
				beats++
				err = WriteFrame(out, &Frame{Type: FrameHeartbeat, ID: cur, Seq: beats})
			}
			wmu.Unlock()
			if err != nil {
				return // supervisor gone; the next result write fails too
			}
		}
	}()

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

		mode := opts.Chaos.Worker(seq)
		switch mode {
		case chaos.ModeKill:
			// Die with no goodbye, taking the whole process group.
			killOwnGroup()
		case chaos.ModeStall:
			// Fall silent: no heartbeats (cur stays empty), no result.
			// Only the supervisor's heartbeat-miss rule can see this; it
			// will kill the group. (Sleeping, not select{}: the runtime's
			// deadlock detector would otherwise turn the hang into a tidy
			// crash.)
			block()
		case chaos.ModeCorrupt:
			// A frame truncated mid-write by a dying process: emit a
			// plausible length prefix with a garbage half-body and exit.
			wmu.Lock()
			out.Write([]byte{0x00, 0x00, 0x01, 0x00, 'g', 'a', 'r', 'b'}) //nolint:errcheck
			wmu.Unlock()
			return errors.New("procexec: chaos corrupt frame injected")
		case chaos.ModePanic:
			panic(fmt.Sprintf("chaos: injected worker panic (request seq %d)", seq))
		}

		wmu.Lock()
		cur, beats = req.ID, 0
		wmu.Unlock()
		if mode == chaos.ModeSpin {
			// Emulate a workload that never terminates but whose process
			// stays healthy: heartbeats keep flowing, the result never
			// comes. Only the execution-time watchdog can catch this.
			block()
		}

		payload, herr := h(req.ID, req.Payload)
		resp := &Frame{Type: FrameResult, ID: req.ID, Payload: payload}
		if herr != nil {
			resp = &Frame{Type: FrameError, ID: req.ID, Error: herr.Error()}
		}
		wmu.Lock()
		cur = ""
		err = WriteFrame(out, resp)
		wmu.Unlock()
		if err != nil {
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

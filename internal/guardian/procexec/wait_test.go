package procexec

import (
	"errors"
	"io"
	"testing"
	"time"

	"hauberk/internal/guardian"
)

// TestJudgeClassifiesByArrivalStamp feeds the frame-wait loop's decision
// synthetic (frame, arrival) sequences against a 100 ms deadline, no
// process involved. Every verdict follows from the stamps alone: in
// particular a result stamped on or past its deadline is a hang, whichever
// channel select would have picked, and silence before it is not.
func TestJudgeClassifiesByArrivalStamp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	frame := func(typ FrameType, id string, n int) frameEvent {
		return frameEvent{f: &Frame{Type: typ, ID: id, Payload: []byte(`1`), Error: "boom"}, at: ms(n)}
	}
	const (
		ok = iota
		appErr
		crash
		watchdog
	)
	for _, tc := range []struct {
		name   string
		events []frameEvent
		want   []verdict // per event
		last   int       // what the last verdict carries
	}{
		{"result on time", []frameEvent{frame(FrameResult, "a", 49)}, []verdict{answered}, ok},
		{"result at the deadline", []frameEvent{frame(FrameResult, "a", 100)}, []verdict{failed}, watchdog},
		{"result past the deadline", []frameEvent{frame(FrameResult, "a", 120)}, []verdict{failed}, watchdog},
		{"silence then a result", []frameEvent{frame(FrameResult, "a", 99)}, []verdict{answered}, ok},
		{"an early tick", []frameEvent{{at: ms(30)}, frame(FrameResult, "a", 31)}, []verdict{waiting, answered}, ok},
		{"a tick at the deadline", []frameEvent{{at: ms(100)}}, []verdict{failed}, watchdog},
		{"application error", []frameEvent{frame(FrameError, "a", 10)}, []verdict{answered}, appErr},
		{"another request's result", []frameEvent{frame(FrameResult, "b", 10)}, []verdict{failed}, crash},
		{"the stream ends", []frameEvent{{err: io.EOF, at: ms(10)}}, []verdict{failed}, crash},
		{"the stream ends past the deadline", []frameEvent{{err: io.EOF, at: ms(100)}}, []verdict{failed}, watchdog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st waitState
			st.head("a", 100*time.Millisecond, t0)
			var err error
			var resp []byte
			for i, ev := range tc.events {
				var v verdict
				v, resp, err = st.judge(ev)
				if v != tc.want[i] {
					t.Fatalf("event %d: verdict %d, want %d (err %v)", i, v, tc.want[i], err)
				}
			}
			var ce *guardian.WorkerCrashError
			var he *guardian.WorkerHangError
			switch tc.last {
			case ok:
				if err != nil || string(resp) != "1" {
					t.Fatalf("got %s, %v; want the result", resp, err)
				}
			case appErr:
				if err == nil || errors.As(err, &ce) || errors.As(err, &he) {
					t.Fatalf("got %v, want the application error", err)
				}
			case crash:
				if !errors.As(err, &ce) {
					t.Fatalf("got %v, want a crash", err)
				}
			case watchdog:
				if !errors.As(err, &he) {
					t.Fatalf("got %v, want a hang", err)
				}
			}
		})
	}

	// The next request's deadline counts from the arrival of the result
	// before it, not from the write of the run.
	var st waitState
	st.head("a", 100*time.Millisecond, t0)
	if v, _, _ := st.judge(frame(FrameResult, "a", 40)); v != answered {
		t.Fatalf("first result: verdict %d", v)
	}
	st.head("b", 100*time.Millisecond, ms(40))
	if !st.due.Equal(ms(140)) {
		t.Fatalf("deadline %v after a result at 40 ms, want 140 ms", st.due.Sub(t0))
	}
	if v, _, err := st.judge(frame(FrameResult, "b", 130)); v != answered {
		t.Fatalf("a result 90 ms after its predecessor: verdict %d (%v)", v, err)
	}
}

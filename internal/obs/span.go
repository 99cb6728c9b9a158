package obs

import "time"

// Span is a span-style phase timer: start it around a phase (a kernel
// launch, a guardian diagnosis round, a whole campaign) and End emits a
// single event of the span's type carrying the measured wall duration as
// a dur_ns field next to the caller's fields.
//
// The zero Span (returned by a disabled Telemetry) is inert, so callers
// never branch:
//
//	sp := tel.Span(obs.EvKernelRetire)
//	... run the kernel ...
//	sp.End(obs.Str("kernel", name), obs.Float("cycles", res.Cycles))
type Span struct {
	t     *Telemetry
	typ   string
	start time.Time
}

// Span starts a timer that End will emit as an event of type typ.
func (t *Telemetry) Span(typ string) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{t: t, typ: typ, start: t.clock()}
}

// End emits the span event with the caller's fields plus dur_ns.
func (s Span) End(fields ...Field) {
	if s.t == nil {
		return
	}
	dur := s.t.clock().Sub(s.start)
	s.t.Emit(s.typ, append(fields, Int("dur_ns", dur.Nanoseconds()))...)
}

package guardian

// BackoffPolicy is the guardian's exponential back-off schedule
// (Section VI(ii)(c)): the recovery engine retests a disabled device after
// Tbackoff, doubling the delay on every failed retest. The same schedule
// paces procexec's restarts of a crashed or hung worker and the fleet
// transport's RPC retries, so one policy describes every "wait longer
// each time" decision in the system. Units are caller-defined: the device
// pool counts virtual ticks, procexec and the fleet transport
// milliseconds.
type BackoffPolicy struct {
	// Init is the first delay; non-positive values fall back to 1.
	Init int64
	// Factor multiplies the delay after each failure; values below 2
	// fall back to 2 (the paper's doubling).
	Factor int64
	// Max caps the delay; 0 means uncapped.
	Max int64
}

// normalized fills defaulted fields.
func (p BackoffPolicy) normalized() BackoffPolicy {
	if p.Init <= 0 {
		p.Init = 1
	}
	if p.Factor < 2 {
		p.Factor = 2
	}
	return p
}

// First returns the initial delay.
func (p BackoffPolicy) First() int64 { return p.normalized().Init }

// Next returns the delay following cur: cur*Factor, capped at Max.
func (p BackoffPolicy) Next(cur int64) int64 {
	p = p.normalized()
	if cur < p.Init {
		return p.Init
	}
	next := cur * p.Factor
	if next/p.Factor != cur { // overflow
		next = 1<<62 - 1
	}
	if p.Max > 0 && next > p.Max {
		next = p.Max
	}
	return next
}

// Delay returns the delay before retry attempt n (0-based):
// Init*Factor^n, capped at Max.
func (p BackoffPolicy) Delay(attempt int) int64 {
	d := p.First()
	for i := 0; i < attempt; i++ {
		d = p.Next(d)
	}
	return d
}

package obs

import (
	"sync"
	"sync/atomic"
)

// Broadcaster is a fan-out Sink: every event goes to the wrapped inner
// sink (the durable journal, or NopSink when no -trace file is open),
// to every synchronously attached tap, and to every live subscriber.
//
// Subscribers receive through bounded buffered channels. An emitter
// never blocks on a slow subscriber: when a subscriber's buffer is full
// the event is dropped for that subscriber and its drop counter
// incremented — the journal stays complete, only the live tail thins.
// This is what lets a campaign's HTTP event feed hang off the hot emit
// path without ever back-pressuring a campaign.
//
// A bounded history ring buffer retains the most recent events so a
// subscriber that arrives late (or after a short campaign already
// finished) can replay the tail before going live; Subscribe splices
// history and live delivery under one lock, so the stream it sees is
// gap-free and duplicate-free in sequence order.
type Broadcaster struct {
	inner Sink

	mu      sync.Mutex
	taps    []Sink
	subs    map[*Subscriber]struct{}
	history []Event // ring, oldest at [histAt]
	histAt  int
	histCap int
	closed  bool

	dropped atomic.Int64
}

// DefaultHistory is the number of recent events a Broadcaster retains
// for late-subscriber replay.
const DefaultHistory = 1024

// NewBroadcaster wraps inner (nil = discard) in a fan-out sink with the
// default replay history.
func NewBroadcaster(inner Sink) *Broadcaster {
	return NewBroadcasterSize(inner, DefaultHistory)
}

// NewBroadcasterSize wraps inner with an explicit replay-history bound
// (0 disables replay).
func NewBroadcasterSize(inner Sink, history int) *Broadcaster {
	if inner == nil {
		inner = NopSink{}
	}
	if history < 0 {
		history = 0
	}
	return &Broadcaster{
		inner:   inner,
		subs:    make(map[*Subscriber]struct{}),
		histCap: history,
	}
}

// Attach adds a synchronous tap: its Emit runs inline on the emitting
// goroutine for every event (the progress tracker attaches this way, so
// its aggregates are never behind the journal). Taps must be fast and
// must not block.
func (b *Broadcaster) Attach(tap Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.taps = append(b.taps, tap)
}

// Dropped returns the total number of events dropped across all
// subscribers since the broadcaster was built.
func (b *Broadcaster) Dropped() int64 { return b.dropped.Load() }

// Emit fans the event out: inner sink first (durability), then taps,
// subscribers and the history ring under one lock — so a Subscribe
// splicing history+live can never observe a gap.
func (b *Broadcaster) Emit(e Event) {
	b.inner.Emit(e)
	b.mu.Lock()
	for _, t := range b.taps {
		t.Emit(e)
	}
	for s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	if b.histCap > 0 {
		if len(b.history) < b.histCap {
			b.history = append(b.history, e)
		} else {
			b.history[b.histAt] = e
			b.histAt = (b.histAt + 1) % b.histCap
		}
	}
	b.mu.Unlock()
}

// Close closes every subscriber channel (their ranges end) and then the
// inner sink. Emit after Close is a silent no-op on subscribers.
func (b *Broadcaster) Close() error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for s := range b.subs {
			if s.closed.CompareAndSwap(false, true) {
				close(s.ch)
			}
		}
		b.subs = make(map[*Subscriber]struct{})
	}
	b.mu.Unlock()
	return b.inner.Close()
}

// Subscriber is one live event consumer.
type Subscriber struct {
	b       *Broadcaster
	ch      chan Event
	replay  []Event
	dropped atomic.Int64
	closed  atomic.Bool
}

// Subscribe registers a consumer with the given live-buffer capacity
// (<=0 uses 256). The returned subscriber's Replay holds the retained
// history at subscribe time; events emitted after the call arrive on
// Events. Splicing happens under the broadcaster lock, so replay+live
// is gap-free in sequence order.
func (b *Broadcaster) Subscribe(buf int) *Subscriber {
	if buf <= 0 {
		buf = 256
	}
	s := &Subscriber{b: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	s.replay = b.snapshotHistoryLocked()
	if b.closed {
		s.closed.Store(true)
		close(s.ch)
	} else {
		b.subs[s] = struct{}{}
	}
	b.mu.Unlock()
	return s
}

// snapshotHistoryLocked copies the ring into emission order.
func (b *Broadcaster) snapshotHistoryLocked() []Event {
	if len(b.history) == 0 {
		return nil
	}
	out := make([]Event, 0, len(b.history))
	out = append(out, b.history[b.histAt:]...)
	out = append(out, b.history[:b.histAt]...)
	return out
}

// Replay returns the events retained before this subscription began.
func (s *Subscriber) Replay() []Event { return s.replay }

// Events is the live event channel; it closes when the subscriber or
// the broadcaster closes.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber missed because its
// buffer was full.
func (s *Subscriber) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscriber; its Events channel closes. Safe to
// call more than once and concurrently with Emit: channel close happens
// under the broadcaster's write lock, which excludes in-flight sends.
func (s *Subscriber) Close() {
	s.b.mu.Lock()
	if _, ok := s.b.subs[s]; ok {
		delete(s.b.subs, s)
		if s.closed.CompareAndSwap(false, true) {
			close(s.ch)
		}
	}
	s.b.mu.Unlock()
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans are recorded
// by this package around calls into each module's public functions —
// nothing inside the programs under test is instrumented — held in memory
// and written out when the traced run ends.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Op is shared by every span of one operation (one campaign).
	Op string `json:"op"`
}

// recorder collects spans. A disabled recorder (on == false) records
// nothing and hands out -1, so the replica loop runs the same code with
// tracing on and off and the difference is the tracing overhead.
type recorder struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name, op string, parent int) int {
	if !r.on {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as a JSON array.
func (r *recorder) write(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (parallel work) and may stick out of the parent (clock order);
// only the union of their intervals, clipped to the parent, is taken off.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals is one span name's aggregate.
type spanTotals struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of self times
}

// totalsByName folds spans by name.
func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.count++
		t.total += time.Duration(s.End - s.Start)
		t.self += time.Duration(self[i])
		out[s.Name] = t
	}
	return out
}

package obs

import (
	"sync"
	"time"
)

// ProgressTracker aggregates the campaign- and worker-lifecycle events
// of the journal into a live status document: per-shard completed/total
// counts, an EWMA injection rate with an ETA, failure-class tallies,
// watchdog kills, and worker spawns/crashes/hangs/restarts. It is
// a Sink, attached synchronously to the Broadcaster so its view is
// never behind the journal, and Snapshot renders the current state as
// the progress of a campaign's status (GET /v1/campaigns/{id}, served by
// hauberkd and by `hauberk-run -http`).
//
// The tracker derives everything from events — it holds no reference
// into the harness — so the same aggregation works on a live stream or
// a replayed journal file.
type ProgressTracker struct {
	mu sync.Mutex
	s  ProgressSnapshot
	// rate estimation state
	lastDone int
	lastAt   time.Time
	ewma     float64 // injections/sec
}

// ewmaAlpha weights the newest inter-progress rate sample; one third
// keeps the estimate responsive across the 2x-ish rate swings worker
// warmup causes without tracking single-sample noise.
const ewmaAlpha = 1.0 / 3

// ShardProgress is the per-shard completed/total view.
type ShardProgress struct {
	Shard     int `json:"shard"`
	Shards    int `json:"shards"`
	Completed int `json:"completed"`
	Total     int `json:"total"`
	Resumed   int `json:"resumed,omitempty"`
}

// WorkerStats counts worker-subprocess lifecycle transitions.
type WorkerStats struct {
	Spawns    int `json:"spawns"`
	Crashes   int `json:"crashes"`
	Hangs     int `json:"hangs"`
	Restarts  int `json:"restarts"`
	Fallbacks int `json:"fallbacks"`
}

// ProgressSnapshot is the progress document of a campaign's status.
type ProgressSnapshot struct {
	// State is idle | running | interrupted | done.
	State   string `json:"state"`
	Program string `json:"program,omitempty"`
	// Planned is the whole campaign's injection count across all shards;
	// Completed/Total are this process's shard-owned counts.
	Planned   int             `json:"planned"`
	Completed int             `json:"completed"`
	Total     int             `json:"total"`
	Shards    []ShardProgress `json:"shards,omitempty"`

	// RatePerSec is the EWMA-smoothed durable-result rate; ETASeconds
	// extrapolates the remainder at that rate (0 when unknown).
	RatePerSec float64 `json:"rate_per_sec"`
	ETASeconds float64 `json:"eta_seconds"`

	// Outcomes tallies completed injections by outcome class name.
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Hangs counts watchdog/heartbeat hang classifications among them.
	Hangs int `json:"hangs"`

	// WatchdogKills counts injections the in-process watchdog timed out.
	WatchdogKills int `json:"watchdog_kills"`

	Workers WorkerStats `json:"workers"`

	// Coverage is the final detection coverage, present once done.
	Coverage float64 `json:"coverage,omitempty"`

	StartedAt time.Time `json:"started_at,omitempty"`
	UpdatedAt time.Time `json:"updated_at,omitempty"`
	// LastSeq is the journal sequence number of the newest event folded
	// into this snapshot.
	LastSeq uint64 `json:"last_seq"`
}

// NewProgressTracker builds an idle tracker.
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{s: ProgressSnapshot{State: "idle", Outcomes: map[string]int{}}}
}

// Close satisfies Sink.
func (p *ProgressTracker) Close() error { return nil }

// Snapshot returns a copy of the current aggregate state.
func (p *ProgressTracker) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.s
	out.Outcomes = make(map[string]int, len(p.s.Outcomes))
	for k, v := range p.s.Outcomes {
		out.Outcomes[k] = v
	}
	out.Shards = append([]ShardProgress(nil), p.s.Shards...)
	out.RatePerSec = p.ewma
	if p.ewma > 0 && p.s.Total > p.s.Completed {
		out.ETASeconds = float64(p.s.Total-p.s.Completed) / p.ewma
	}
	return out
}

// Emit folds one journal event into the aggregate. Unknown event types
// only bump the sequence high-water mark.
func (p *ProgressTracker) Emit(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.Seq > p.s.LastSeq {
		p.s.LastSeq = e.Seq
	}
	p.s.UpdatedAt = e.Wall
	f := fieldMap(e.Fields)

	switch e.Type {
	case EvCampaignStart:
		p.s.State = "running"
		p.s.Program = f.str("program")
		p.s.Planned = f.int("injections")
		p.s.StartedAt = e.Wall
		p.lastAt = e.Wall
		p.lastDone = 0
		p.upsertShard(f.int("shard"), f.int("shards"), 0, 0, 0)

	case EvCampaignResume:
		sh := p.upsertShard(f.int("shard"), f.int("shards"), 0, 0, f.int("completed"))
		sh.Completed = f.int("completed")
		sh.Total = f.int("completed") + f.int("remaining")
		p.refold()
		p.lastDone = p.s.Completed
		p.lastAt = e.Wall

	case EvCampaignProgress:
		sh := p.upsertShard(f.int("shard"), f.int("shards"), 0, 0, 0)
		sh.Completed = f.int("done")
		sh.Total = f.int("total")
		if o := f.str("outcome"); o != "" {
			p.s.Outcomes[o]++
		}
		if f.bool("hang") {
			p.s.Hangs++
		}
		p.refold()
		p.observeRate(e.Wall)

	case EvCampaignWatchdog:
		p.s.WatchdogKills++

	case EvCampaignInterrupt:
		p.s.State = "interrupted"

	case EvCampaignDone:
		p.s.State = "done"
		p.s.Coverage = f.float("coverage")
		// A done event without per-result progress events (the in-process
		// figure path emits coarse progress) still lands on a full bar.
		for i := range p.s.Shards {
			if p.s.Shards[i].Total > 0 {
				p.s.Shards[i].Completed = p.s.Shards[i].Total
			}
		}
		p.refold()

	case EvWorkerSpawn:
		p.s.Workers.Spawns++
	case EvWorkerCrash:
		p.s.Workers.Crashes++
	case EvWorkerHang:
		p.s.Workers.Hangs++
	case EvWorkerRestart:
		p.s.Workers.Restarts++
	case EvWorkerFallback:
		p.s.Workers.Fallbacks++
	}
}

// upsertShard finds or creates the ShardProgress row for shard/shards.
func (p *ProgressTracker) upsertShard(shard, shards, completed, total, resumed int) *ShardProgress {
	if shards <= 0 {
		shards = 1
	}
	for i := range p.s.Shards {
		if p.s.Shards[i].Shard == shard {
			return &p.s.Shards[i]
		}
	}
	p.s.Shards = append(p.s.Shards, ShardProgress{
		Shard: shard, Shards: shards, Completed: completed, Total: total, Resumed: resumed,
	})
	return &p.s.Shards[len(p.s.Shards)-1]
}

// refold recomputes the top-level completed/total from the shard rows.
func (p *ProgressTracker) refold() {
	done, total := 0, 0
	for i := range p.s.Shards {
		done += p.s.Shards[i].Completed
		total += p.s.Shards[i].Total
	}
	p.s.Completed, p.s.Total = done, total
}

// observeRate updates the EWMA injections/sec from the completed-count
// delta since the last progress event.
func (p *ProgressTracker) observeRate(now time.Time) {
	if p.lastAt.IsZero() {
		p.lastAt, p.lastDone = now, p.s.Completed
		return
	}
	dt := now.Sub(p.lastAt).Seconds()
	dd := p.s.Completed - p.lastDone
	if dt <= 0 || dd <= 0 {
		return
	}
	inst := float64(dd) / dt
	if p.ewma == 0 {
		p.ewma = inst
	} else {
		p.ewma = ewmaAlpha*inst + (1-ewmaAlpha)*p.ewma
	}
	p.lastAt, p.lastDone = now, p.s.Completed
}

// fields is a transient key lookup over an event's field slice.
type fields []Field

func fieldMap(fs []Field) fields { return fields(fs) }

func (fs fields) get(key string) (Field, bool) {
	for _, f := range fs {
		if f.Key == key {
			return f, true
		}
	}
	return Field{}, false
}

func (fs fields) str(key string) string {
	if f, ok := fs.get(key); ok && f.kind == kindStr {
		return f.str
	}
	return ""
}

func (fs fields) int(key string) int {
	f, ok := fs.get(key)
	if !ok {
		return 0
	}
	switch f.kind {
	case kindInt:
		return int(f.i)
	case kindFloat:
		return int(f.num)
	}
	return 0
}

func (fs fields) float(key string) float64 {
	f, ok := fs.get(key)
	if !ok {
		return 0
	}
	switch f.kind {
	case kindFloat:
		return f.num
	case kindInt:
		return float64(f.i)
	}
	return 0
}

func (fs fields) bool(key string) bool {
	if f, ok := fs.get(key); ok && f.kind == kindBool {
		return f.i != 0
	}
	return false
}

package obs

import (
	"testing"
	"time"
)

// emitTo folds a synthetic event into the tracker with a fixed wall
// clock offset in seconds from a common origin.
func emitTo(p *ProgressTracker, seq uint64, at float64, typ string, fields ...Field) {
	origin := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p.Emit(Event{Seq: seq, Wall: origin.Add(time.Duration(at * float64(time.Second))), Type: typ, Fields: fields})
}

func TestProgressTrackerCampaignLifecycle(t *testing.T) {
	p := NewProgressTracker()
	if s := p.Snapshot(); s.State != "idle" {
		t.Fatalf("initial state %q, want idle", s.State)
	}

	emitTo(p, 1, 0, EvCampaignStart,
		Str("program", "CP"), Int("injections", 40), Int("shard", 0), Int("shards", 1))
	s := p.Snapshot()
	if s.State != "running" || s.Program != "CP" || s.Planned != 40 {
		t.Fatalf("after start: %+v", s)
	}

	// Ten results, one per second: rate must settle near 1/s.
	outcomes := []string{"failure", "masked", "detected&masked", "detected", "undetected",
		"failure", "masked", "detected", "detected", "masked"}
	for i := 1; i <= 10; i++ {
		fields := []Field{
			Str("program", "CP"), Int("done", int64(i)), Int("total", 40),
			Int("shard", 0), Int("shards", 1),
			Str("outcome", outcomes[i-1]), Bool("hang", i == 6),
		}
		emitTo(p, uint64(1+i), float64(i), EvCampaignProgress, fields...)
	}
	s = p.Snapshot()
	if s.Completed != 10 || s.Total != 40 {
		t.Fatalf("progress %d/%d, want 10/40", s.Completed, s.Total)
	}
	if s.RatePerSec < 0.9 || s.RatePerSec > 1.1 {
		t.Fatalf("EWMA rate %.3f, want ~1.0", s.RatePerSec)
	}
	// 30 remaining at ~1/s.
	if s.ETASeconds < 27 || s.ETASeconds > 34 {
		t.Fatalf("ETA %.1fs, want ~30s", s.ETASeconds)
	}
	if s.Outcomes["masked"] != 3 || s.Outcomes["failure"] != 2 || s.Outcomes["detected"] != 3 {
		t.Fatalf("outcome tallies: %v", s.Outcomes)
	}
	if s.Hangs != 1 {
		t.Fatalf("hangs %d, want 1", s.Hangs)
	}

	emitTo(p, 13, 10.6, EvCampaignWatchdog, Str("id", "y"), Int("timeout_ms", 250))
	s = p.Snapshot()
	if s.WatchdogKills != 1 {
		t.Fatalf("watchdog kills: %+v", s)
	}

	// Worker lifecycle.
	emitTo(p, 14, 11, EvWorkerSpawn, Int("pid", 1))
	emitTo(p, 15, 12, EvWorkerCrash, Int("exit", 2))
	emitTo(p, 16, 13, EvWorkerRestart, Int("attempt", 1))
	emitTo(p, 17, 14, EvWorkerHang, Str("reason", "request exceeded 15.2s (watchdog)"))
	emitTo(p, 18, 15, EvWorkerFallback, Str("reason", "spawn failed"))
	s = p.Snapshot()
	if s.Workers != (WorkerStats{Spawns: 1, Crashes: 1, Hangs: 1, Restarts: 1, Fallbacks: 1}) {
		t.Fatalf("worker stats: %+v", s.Workers)
	}

	emitTo(p, 19, 40, EvCampaignDone,
		Str("program", "CP"), Int("injections", 40), Float("coverage", 0.93))
	s = p.Snapshot()
	if s.State != "done" {
		t.Fatalf("state %q, want done", s.State)
	}
	if s.Completed != s.Total {
		t.Fatalf("done snapshot %d/%d not full", s.Completed, s.Total)
	}
	if s.Coverage != 0.93 {
		t.Fatalf("coverage %v", s.Coverage)
	}
	if s.LastSeq != 19 {
		t.Fatalf("last seq %d, want 19", s.LastSeq)
	}
}

func TestProgressTrackerResumeAndShards(t *testing.T) {
	p := NewProgressTracker()
	emitTo(p, 1, 0, EvCampaignStart,
		Str("program", "MRI-Q"), Int("injections", 100), Int("shard", 1), Int("shards", 2))
	emitTo(p, 2, 0.1, EvCampaignResume,
		Str("program", "MRI-Q"), Int("completed", 20), Int("remaining", 30),
		Int("shard", 1), Int("shards", 2))
	s := p.Snapshot()
	if s.Completed != 20 || s.Total != 50 {
		t.Fatalf("after resume: %d/%d, want 20/50", s.Completed, s.Total)
	}
	emitTo(p, 3, 1, EvCampaignProgress,
		Str("program", "MRI-Q"), Int("done", 21), Int("total", 50),
		Int("shard", 1), Int("shards", 2), Str("outcome", "masked"))
	s = p.Snapshot()
	if s.Completed != 21 || s.Total != 50 {
		t.Fatalf("after progress: %d/%d, want 21/50", s.Completed, s.Total)
	}
	if len(s.Shards) != 1 || s.Shards[0].Shard != 1 {
		t.Fatalf("shard rows: %+v", s.Shards)
	}

	// Interrupt flips the state but keeps counts.
	emitTo(p, 4, 2, EvCampaignInterrupt, Str("program", "MRI-Q"),
		Int("completed", 21), Int("remaining", 29))
	s = p.Snapshot()
	if s.State != "interrupted" || s.Completed != 21 {
		t.Fatalf("after interrupt: %+v", s)
	}
}

// TestProgressTrackerAsTap drives the tracker through a Broadcaster the
// way hauberk-run wires it.
func TestProgressTrackerAsTap(t *testing.T) {
	p := NewProgressTracker()
	b := NewBroadcaster(nil)
	b.Attach(p)
	tel := New(b)
	tel.Emit(EvCampaignStart, Str("program", "CP"), Int("injections", 3))
	tel.Emit(EvCampaignProgress, Str("program", "CP"), Int("done", 1), Int("total", 3),
		Str("outcome", "masked"))
	if s := p.Snapshot(); s.State != "running" || s.Completed != 1 || s.Total != 3 {
		t.Fatalf("tracker behind the live feed: %+v", s)
	}
	tel.Close()
}

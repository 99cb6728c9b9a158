package service

import (
	"fmt"

	"hauberk/internal/harness/store"
)

// NodeStatus is the daemon's own health document, served at GET
// /v1/node. The fleet coordinator folds it (together with /readyz and
// RPC outcomes) into its per-node verdict: a draining node stops
// receiving shards, a node whose counts stall between polls is probed
// harder.
type NodeStatus struct {
	// Draining reports that Shutdown has begun: admission is closed and
	// running campaigns are checkpointing.
	Draining bool `json:"draining"`
	// Running and Queued count campaigns currently executing and waiting
	// for a dispatch slot.
	Running int `json:"running"`
	Queued  int `json:"queued"`
	// States counts every known campaign by lifecycle state.
	States map[State]int `json:"states"`
}

// NodeStatus snapshots the daemon for /v1/node.
func (d *Daemon) NodeStatus() NodeStatus {
	ns := NodeStatus{
		Draining: d.Draining(),
		Running:  d.sched.Running(),
		Queued:   len(d.sched.Queued()),
		States:   make(map[State]int),
	}
	d.mu.Lock()
	for _, c := range d.campaigns {
		ns.States[c.State()]++
	}
	d.mu.Unlock()
	return ns
}

// StoreSnapshot is a campaign's durable store in wire form, served at
// GET /v1/campaigns/{id}/store: the manifest plus its record lines, keyed
// by the shard's tag in a store directory (store.ShardTag). The
// coordinator appends them to its merge directory's log, where the
// read-side merge dedupes re-dispatched records and rejects cross-plan
// conflicts. State rides along so the coordinator can tell a complete
// shard from a partial salvage.
type StoreSnapshot struct {
	State    State             `json:"state"`
	Manifest store.Manifest    `json:"manifest"`
	Files    map[string]string `json:"files"`
}

// StoreSnapshot reads a campaign's durable store — its lines of the
// journal — for the fleet coordinator. A campaign that has not begun
// executing has no manifest yet; that surfaces as os.ErrNotExist (HTTP
// 404) and the coordinator treats the shard as not-yet-started rather
// than failed.
func (d *Daemon) StoreSnapshot(id string) (StoreSnapshot, error) {
	c, err := d.Get(id)
	if err != nil {
		return StoreSnapshot{}, err
	}
	state := c.State() // before the records, so a done state comes with all of them
	m, raw, err := d.journal.Snapshot(id)
	if err != nil {
		return StoreSnapshot{}, fmt.Errorf("service: %w", err)
	}
	return StoreSnapshot{
		State:    state,
		Manifest: m,
		Files:    map[string]string{store.ShardTag(c.Shard, c.Shards): string(raw)},
	}, nil
}

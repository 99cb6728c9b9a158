// Package store persists fault-injection campaign results durably:
// an append-only JSONL record log keyed by a deterministic campaign
// manifest. Section VIII's campaigns run thousands of single-fault
// experiments per workload and (per Section VI's motivation for the
// guardian) long runs die mid-way; the store lets a re-launched campaign
// load the completed injection IDs and run only the remainder, and lets
// shards produced by separate processes merge into one report.
//
// Layout of a campaign directory:
//
//	manifest.json       — the campaign's identity (program, mode, plan hash)
//	shard-IofN.jsonl    — one append-only result log per shard
//
// Every record is flushed as soon as it is appended, so a kill loses at
// most the injection in flight; a truncated trailing line (the partial
// write of the record being appended when the process died) is tolerated
// and re-run on resume.
//
// A campaign whose results are consumed by the process that ran it opens
// the store with no directory: same Store, no files, records in memory.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Manifest identifies a campaign deterministically. Two processes with
// equal manifests are running the same planned injection list, so their
// result records are interchangeable; Open refuses to resume into a
// directory whose manifest disagrees.
type Manifest struct {
	// Program is the workload name.
	Program string `json:"program"`
	// Mode is the translator library mode the campaign injects under.
	Mode int `json:"mode"`
	// Injections is the full (unsharded) plan length.
	Injections int `json:"injections"`
	// PlanHash fingerprints the ordered stable injection IDs of the plan
	// (hex). Seeded planning makes it reproducible across processes.
	PlanHash string `json:"plan_hash"`
	// Scale describes the planning parameters (sites, masks, bit counts,
	// dataset) for human inspection; it is part of the identity check.
	Scale string `json:"scale,omitempty"`
}

// Equal reports whether two manifests identify the same campaign. The
// fleet coordinator uses it to refuse merging shard logs fetched from a
// node that ran a different plan (seed or scale drift between daemons).
func (m Manifest) Equal(o Manifest) bool {
	return m.Program == o.Program && m.Mode == o.Mode &&
		m.Injections == o.Injections && m.PlanHash == o.PlanHash &&
		m.Scale == o.Scale
}

// Record is one completed injection's durable outcome. Bits and Class
// duplicate plan metadata so aggregate figures can be rebuilt from the
// log alone, without re-deriving the plan. Its encoding/json form is the
// log line; appendRecord and decodeRecord (codec.go) write and read it
// without reflection, and a change to a field or tag changes them too.
type Record struct {
	// Idx is the injection's position in the full plan.
	Idx int `json:"idx"`
	// ID is the stable injection identity (swifi.Command.Key).
	ID string `json:"id"`
	// Outcome is the five-way classification ordinal.
	Outcome int `json:"outcome"`
	// Hang distinguishes hang failures from crashes.
	Hang bool `json:"hang,omitempty"`
	// Activated reports whether the fault's chosen instance executed.
	Activated bool `json:"activated,omitempty"`
	// Bits is the error-mask bit count (Figure 14 axis).
	Bits int `json:"bits"`
	// Class is the corrupted data class ordinal (Figure 1 axis).
	Class int `json:"class"`
	// TimedOut marks a watchdog kill (hang classified by wall clock
	// rather than the simulator's step budget).
	TimedOut bool `json:"timed_out,omitempty"`
}

// Conflicts reports whether two records claiming the same plan index
// disagree on any field. Every field — identity, outcome,
// hang/activation/timeout flags, bits, class — is deterministic for a
// given plan index, so a disagreement means one of the logs is corrupt or
// belongs to a different plan.
func (r Record) Conflicts(o Record) bool {
	return r != o
}

const manifestFile = "manifest.json"

// ShardFile names shard i's result log in an N-way split.
func ShardFile(shard, shards int) string {
	return fmt.Sprintf("shard-%dof%d.jsonl", shard, shards)
}

// Store is one shard's append-only result log plus the set of records
// already completed (loaded at open, extended by Append). Safe for
// concurrent Append calls. A store opened with no directory has no log (f
// and w are nil): its records live in done alone, for campaigns whose
// result is consumed by the process that ran them.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	buf  []byte
	done map[int]Record
}

// Open creates or resumes shard shard/shards of the campaign identified
// by m under dir. A directory it creates gets the manifest and is not
// read; in an existing one it verifies the manifest matches (a mismatch
// means the directory holds a different campaign — refusing protects the
// log from silent corruption). When resume is false an existing non-empty shard
// log is an error, so accidental re-launches don't double-append. An
// empty dir opens a store that keeps its records in memory only.
func Open(dir string, m Manifest, shard, shards int, resume bool) (*Store, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("store: invalid shard %d/%d", shard, shards)
	}
	if dir == "" {
		return &Store{done: make(map[int]Record)}, nil
	}
	// A directory this call creates holds no manifest and no log, so
	// there is nothing to verify or load; a missing parent makes it new too.
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, fs.ErrNotExist) {
		err = os.MkdirAll(dir, 0o755)
	}
	fresh := err == nil
	if err != nil && !errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("store: %w", err)
	}
	mpath := filepath.Join(dir, manifestFile)
	path := filepath.Join(dir, ShardFile(shard, shards))
	done := make(map[int]Record)
	verified := false
	if !fresh {
		if raw, err := os.ReadFile(mpath); err == nil {
			var have Manifest
			if err := json.Unmarshal(raw, &have); err != nil {
				return nil, fmt.Errorf("store: corrupt manifest %s: %w", mpath, err)
			}
			if !have.Equal(m) {
				return nil, fmt.Errorf("store: %s holds a different campaign (have %s/%s, want %s/%s)",
					dir, have.Program, have.PlanHash, m.Program, m.PlanHash)
			}
			verified = true
		}
		if done, err = readRecords(path, m.Injections, shard, shards); err != nil {
			return nil, err
		}
		if !resume && len(done) > 0 {
			return nil, fmt.Errorf("store: %s already holds %d results; pass resume to continue it", path, len(done))
		}
	}
	if !verified {
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("store: encode manifest: %w", err)
		}
		if err := os.WriteFile(mpath, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("store: write manifest: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{f: f, w: bufio.NewWriter(f), done: done}, nil
}

// Append durably records one completed injection: the line is flushed to
// the OS before Append returns, so a later kill cannot lose it.
func (s *Store) Append(r Record) error {
	if s.f == nil {
		s.mu.Lock()
		s.done[r.Idx] = r
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(appendRecord(s.buf[:0], r), '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	s.done[r.Idx] = r
	return nil
}

// Done returns the completed record for a plan index, if present.
func (s *Store) Done(idx int) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.done[idx]
	return r, ok
}

// Completed returns how many records this shard holds.
func (s *Store) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Sync forces the log to stable storage (fsync).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readRecords loads a shard log of an injections-long plan (see
// parseRecords); a missing log holds no records.
func readRecords(path string, injections, shard, shards int) (map[int]Record, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[int]Record{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return parseRecords(path, raw, injections, shard, shards)
}

// parseRecords decodes the shard log raw, read from path. A malformed
// final line (the partial write of a killed process) is dropped; malformed
// interior lines always abort, since they mean real corruption — as does a
// record whose index lies outside the plan or outside shard/shards' share
// of it, which would otherwise stand in for an injection that never ran.
func parseRecords(path string, raw []byte, injections, shard, shards int) (map[int]Record, error) {
	done := make(map[int]Record, bytes.Count(raw, []byte{'\n'}))
	for i := 0; len(raw) > 0; i++ {
		line, rest, ended := bytes.Cut(raw, []byte{'\n'})
		raw = rest
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := decodeRecord(line)
		if err != nil {
			if !ended {
				break // truncated final record: the in-flight injection re-runs
			}
			return nil, fmt.Errorf("store: %s line %d: %w", path, i+1, err)
		}
		if r.Idx < 0 || r.Idx >= injections {
			return nil, fmt.Errorf("store: %s line %d: record for injection %d is outside the %d-injection plan",
				path, i+1, r.Idx, injections)
		}
		if r.Idx%shards != shard {
			return nil, fmt.Errorf("store: %s line %d: record for injection %d does not belong to shard %d/%d",
				path, i+1, r.Idx, shard, shards)
		}
		if have, ok := done[r.Idx]; ok && have.Conflicts(r) {
			return nil, fmt.Errorf("store: %s line %d: duplicate record for injection %d disagrees with an earlier line (outcome %d vs %d)",
				path, i+1, r.Idx, r.Outcome, have.Outcome)
		}
		done[r.Idx] = r
	}
	return done, nil
}

// Load reads a campaign directory: the manifest plus every shard log,
// merged and sorted by plan index. Duplicate indices are legitimate only
// when the records agree (a record appended twice across a resume
// boundary, or a shard re-executed on another node after a failover —
// deterministic execution makes the re-run's records equal). Records that claim the same index but disagree on any
// figure-bearing field mean the directory mixes logs from different
// plans or holds real corruption, and merging them would silently skew
// the aggregate — that is an error, never a last-writer-wins.
func Load(dir string) (Manifest, []Record, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return m, nil, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, nil, fmt.Errorf("store: corrupt manifest in %s: %w", dir, err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		return m, nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths)
	merged := make(map[int]Record)
	source := make(map[int]string)
	for _, p := range paths {
		// Any log may hold any index of the plan here: salvaged partial logs
		// of a failed-over shard merge under their own names.
		recs, err := readRecords(p, m.Injections, 0, 1)
		if err != nil {
			return m, nil, err
		}
		for idx, r := range recs {
			if have, ok := merged[idx]; ok && have.Conflicts(r) {
				return m, nil, fmt.Errorf("store: conflicting records for injection %d: %s has outcome=%d hang=%v id=%q, %s has outcome=%d hang=%v id=%q (shard logs from different plans?)",
					idx, filepath.Base(source[idx]), have.Outcome, have.Hang, have.ID,
					filepath.Base(p), r.Outcome, r.Hang, r.ID)
			}
			merged[idx] = r
			source[idx] = p
		}
	}
	out := make([]Record, 0, len(merged))
	for _, r := range merged {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	return m, out, nil
}

// Missing returns how many of the manifest's injections have no record
// yet (0 means the campaign is complete across the loaded shards). Load
// returns each index of the plan at most once and no other, so the count
// is exact.
func Missing(m Manifest, recs []Record) int {
	return m.Injections - len(recs)
}

// Package store persists fault-injection campaign results durably:
// an append-only JSONL record log keyed by a deterministic campaign
// manifest. Section VIII's campaigns run thousands of single-fault
// experiments per workload and (per Section VI's motivation for the
// guardian) long runs die mid-way; the store lets a re-launched campaign
// load the completed injection IDs and run only the remainder, and lets
// shards produced by separate processes merge into one report.
//
// A store directory (`hauberk-run -campaign-dir`, the fleet's merge
// directory, hauberkd's store root) is one file, its Log (log.go):
//
//	journal.jsonl — tagged lines, one tag per campaign:
//	  shard-IofN\tmanifest\t{…}        the campaign's identity (program, mode, plan hash)
//	  shard-IofN\t{record}             one per completed injection of shard I of N
//	  shard-IofN.partial<k>.<node>\t…  a failed-over shard's lines, salvaged by the fleet
//
// hauberkd tags each campaign's lines with its campaign ID instead, and
// adds its own untagged lines (log.go). Load merges every campaign of a
// directory's log; shards of one plan may append to it from separate
// processes at the same time, each line one write(2).
//
// Every record is written to the OS as soon as it is appended, so a kill
// loses at most the injection in flight; a truncated line (the partial
// write of the record being appended when the process died) is skipped by
// readers, its injection re-run on resume, and a resumed writer ends it
// with a newline before its first line.
//
// A campaign whose results are consumed by the process that ran it opens
// the store with no directory: same Store, no files, records in memory.
package store

import (
	"bytes"
	"fmt"
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

// JournalFile is a store directory's one file, the log of its campaigns:
// DIR/journal.jsonl of `hauberk-run -campaign-dir`, the fleet's merge
// directory and hauberkd's store root alike.
const JournalFile = "journal.jsonl"

// ShardTag is the tag of shard shard/shards' lines in a store directory's
// log.
func ShardTag(shard, shards int) string {
	return fmt.Sprintf("shard-%dof%d", shard, shards)
}

// Store is one shard's append-only result log plus the set of records
// already completed (loaded at open, extended by Append). Safe for
// concurrent Append calls. Its log is a campaign's lines of a Log (log and
// lc): a directory's, which the store opened and closes (owns), or its
// owner's, such as hauberkd's journal. A store opened with no directory has
// no log, and its records live in done alone, for campaigns whose result is
// consumed by the process that ran them.
type Store struct {
	mu   sync.Mutex
	log  *Log
	lc   *logCampaign
	owns bool
	done map[int]Record
}

// Open creates or resumes shard shard/shards of the campaign identified
// by m in the store directory dir: the lines tagged ShardTag(shard,
// shards) of DIR/journal.jsonl, both created as needed. Every campaign the
// log already holds must be m (any other means the directory holds a
// different campaign — refusing protects the log from silent corruption).
// When resume is false a shard that already holds records is an error, so
// accidental re-launches don't double-append. Shards may be opened by
// separate processes at the same time: each writes its own manifest line.
// An empty dir opens a store that keeps its records in memory only.
func Open(dir string, m Manifest, shard, shards int, resume bool) (*Store, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("store: invalid shard %d/%d", shard, shards)
	}
	if dir == "" {
		return &Store{done: make(map[int]Record)}, nil
	}
	l, err := OpenLog(dir)
	if err != nil {
		return nil, err
	}
	for tag, c := range l.camps {
		if c.manifest != nil && !c.manifest.Equal(m) {
			l.Close()
			return nil, fmt.Errorf("store: %s holds a different campaign (%s has %s/%s, want %s/%s)",
				dir, tag, c.manifest.Program, c.manifest.PlanHash, m.Program, m.PlanHash)
		}
	}
	s, err := l.Open(ShardTag(shard, shards), m, shard, shards, resume)
	if err != nil {
		l.Close()
		return nil, err
	}
	s.owns = true
	return s, nil
}

// Name names the store in messages: its log's path and campaign tag.
func (s *Store) Name() string {
	if s.log == nil {
		return "(in memory)"
	}
	return fmt.Sprintf("%s (campaign %s)", s.log.path, s.lc.tag)
}

// Append durably records one completed injection: the line is written to
// the OS, in one write(2), before Append returns, so a later kill cannot
// lose it.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		if err := s.log.appendRecord(s.lc, r); err != nil {
			return err
		}
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
	if s.log == nil {
		return nil
	}
	return s.log.sync()
}

// Close closes a directory's log; a store on its owner's Log leaves the
// log open.
func (s *Store) Close() error {
	if !s.owns {
		return nil
	}
	return s.log.Close()
}

// parseRecords decodes raw, campaign name's record lines with their tags
// cut, for an injections-long plan. A line that does not end in '}' is the
// partial write of a killed process (see ReadLog) and is skipped, as is a
// malformed final line; any other malformed line aborts, since it means
// real corruption — as does a record whose index lies outside the plan or
// outside shard/shards' share of it, which would otherwise stand in for an
// injection that never ran.
func parseRecords(name string, raw []byte, injections, shard, shards int) (map[int]Record, error) {
	done := make(map[int]Record, bytes.Count(raw, []byte{'\n'}))
	for i := 0; len(raw) > 0; i++ {
		line, rest, ended := bytes.Cut(raw, []byte{'\n'})
		raw = rest
		if len(bytes.TrimSpace(line)) == 0 || line[len(line)-1] != '}' {
			continue // blank, or a torn write: its injection re-runs
		}
		r, err := decodeRecord(line)
		if err != nil {
			if !ended {
				break // truncated final record: the in-flight injection re-runs
			}
			return nil, fmt.Errorf("store: %s line %d: %w", name, i+1, err)
		}
		if r.Idx < 0 || r.Idx >= injections {
			return nil, fmt.Errorf("store: %s line %d: record for injection %d is outside the %d-injection plan",
				name, i+1, r.Idx, injections)
		}
		if r.Idx%shards != shard {
			return nil, fmt.Errorf("store: %s line %d: record for injection %d does not belong to shard %d/%d",
				name, i+1, r.Idx, shard, shards)
		}
		if have, ok := done[r.Idx]; ok && have.Conflicts(r) {
			return nil, fmt.Errorf("store: %s line %d: duplicate record for injection %d disagrees with an earlier line (outcome %d vs %d)",
				name, i+1, r.Idx, r.Outcome, have.Outcome)
		}
		done[r.Idx] = r
	}
	return done, nil
}

// Load reads the store directory dir: every campaign of its log, merged
// and sorted by plan index. The campaigns are shards and salvaged partial
// shards of one plan, so their manifests must agree. Duplicate indices are
// legitimate only when the records agree (a record appended twice across a
// resume boundary, or a shard re-executed on another node after a failover
// — deterministic execution makes the re-run's records equal). Records that
// claim the same index but disagree on any figure-bearing field mean the
// directory mixes logs from different plans or holds real corruption, and
// merging them would silently skew the aggregate — that is an error, never
// a last-writer-wins.
func Load(dir string) (Manifest, []Record, error) {
	if err := refuseOldLayout(dir); err != nil {
		return Manifest{}, nil, err
	}
	path := filepath.Join(dir, JournalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("store: %w", err)
	}
	return loadLog(path, raw)
}

// loadLog merges every campaign of the log raw, read from path (see Load).
func loadLog(path string, raw []byte) (Manifest, []Record, error) {
	l, err := ReadLog(path, raw, nil)
	if err != nil {
		return Manifest{}, nil, err
	}
	if len(l.camps) == 0 {
		return Manifest{}, nil, fmt.Errorf("store: %s holds no campaign", path)
	}
	tags := make([]string, 0, len(l.camps))
	for tag := range l.camps {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return l.Load(tags...)
}

// refuseOldLayout refuses a campaign directory of the older format, a
// manifest.json beside shard-IofN.jsonl logs, which this one would
// otherwise silently ignore.
func refuseOldLayout(dir string) error {
	for _, pattern := range []string{"manifest.json", "shard-*.jsonl"} {
		old, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if len(old) > 0 {
			return fmt.Errorf("store: %s is a campaign directory of an older format (it holds %s); this one keeps a campaign in %s: finish it with the binary that started it, or move it aside",
				dir, old[0], JournalFile)
		}
	}
	return nil
}

// sorted lists records by plan index.
func sorted(recs map[int]Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	return out
}

// Missing returns how many of the manifest's injections have no record
// yet (0 means the campaign is complete across the loaded shards). Load
// returns each index of the plan at most once and no other, so the count
// is exact.
func Missing(m Manifest, recs []Record) int {
	return m.Injections - len(recs)
}

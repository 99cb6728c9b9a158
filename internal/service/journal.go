package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// journalFile is the daemon's campaign journal, directly under StoreRoot
// next to the per-campaign store directories.
const journalFile = "journal.jsonl"

// meta is a campaign's durable form: one line of the daemon journal. It
// is what lets a restarted daemon rebuild its campaign table and requeue
// unfinished work; the campaign's directory holds only its injection
// store.
type meta struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Program     string    `json:"program"`
	Scale       string    `json:"scale"`
	Dataset     int       `json:"dataset"`
	Isolation   string    `json:"isolation,omitempty"`
	Shard       int       `json:"shard,omitempty"`
	Shards      int       `json:"shards,omitempty"`
	State       State     `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Digest      string    `json:"digest,omitempty"`
	Error       string    `json:"error,omitempty"`
}

// metaLocked snapshots the campaign's durable form; c.mu must be held.
func (c *Campaign) metaLocked() meta {
	return meta{
		ID:          c.ID,
		Tenant:      c.Tenant,
		Program:     c.Program,
		Scale:       c.ScaleName,
		Dataset:     c.Dataset,
		Isolation:   c.Isolation,
		Shard:       c.Shard,
		Shards:      shardsField(c.Shards),
		State:       c.state,
		SubmittedAt: c.submittedAt,
		StartedAt:   c.startedAt,
		FinishedAt:  c.finishedAt,
		Digest:      c.digest,
		Error:       c.errMsg,
	}
}

// journal is the daemon's append-only campaign log: one compact JSON meta
// line per lifecycle write — a campaign's submission and its settled
// state. Like the store's shard logs, a line is one write(2) on an
// O_APPEND file and nothing is fsynced, so a kill loses at most the line
// being written, whose torn tail replay skips.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte
}

// append writes c's current durable form as one line. The snapshot is
// taken under the journal lock, so lines land in the order of the states
// they record and a campaign's last line is never older than its latest
// persisted state, however its writers interleave.
func (j *journal) append(c *Campaign) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("service: journal closed")
	}
	c.mu.Lock()
	m := c.metaLocked()
	c.mu.Unlock()
	var err error
	if j.buf, err = appendLine(j.buf[:0], m); err != nil {
		return err
	}
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("service: append %s: %w", journalFile, err)
	}
	return nil
}

// close closes the journal file; later appends fail.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// appendLine appends m's journal line, newline included, to buf.
func appendLine(buf []byte, m meta) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return buf, fmt.Errorf("service: encode %s line for %s: %w", journalFile, m.ID, err)
	}
	return append(append(buf, raw...), '\n'), nil
}

// openJournal rewrites root's journal as ms, one line per campaign
// (tmp + fsync + rename, so a crash leaves the old journal or the new
// one), and opens it for appending. The compaction keeps the journal the
// size of the campaign table rather than of the daemon's history.
func openJournal(root string, ms []meta) (*journal, error) {
	var buf []byte
	for _, m := range ms {
		var err error
		if buf, err = appendLine(buf, m); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(root, journalFile)
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("service: compact %s: %w", journalFile, err)
	}
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return nil, fmt.Errorf("service: compact %s: %w", journalFile, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return &journal{f: f}, nil
}

// readJournal replays root's journal (see parseJournal). A root without
// one is empty, unless it holds the per-campaign submission.json files of
// a daemon from before the journal: those campaigns would be silently
// forgotten, so that root is refused.
func readJournal(root string) ([]meta, error) {
	path := filepath.Join(root, journalFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		legacy, gerr := filepath.Glob(filepath.Join(root, "*", "submission.json"))
		if gerr != nil {
			return nil, fmt.Errorf("service: scan %s: %w", root, gerr)
		}
		if len(legacy) > 0 {
			return nil, fmt.Errorf("service: store root %s holds %d campaign(s) of a daemon without %s (e.g. %s); drain them with that daemon's binary, or move the directory aside",
				root, len(legacy), journalFile, legacy[0])
		}
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return parseJournal(path, raw)
}

// parseJournal replays the journal raw, read from path, in order: the
// last line for an ID wins. It returns one meta per campaign, by ID. A
// malformed final line (the partial write of a killed daemon) is dropped;
// a malformed interior line, or one naming no campaign ID or an unknown
// state, is corruption and an error.
func parseJournal(path string, raw []byte) ([]meta, error) {
	byID := make(map[string]meta)
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m meta
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			if i == len(lines)-1 {
				break // torn final line: its campaign keeps its previous state
			}
			return nil, fmt.Errorf("service: %s line %d: %w", path, i+1, err)
		}
		if _, ok := campaignNumber(m.ID); !ok {
			return nil, fmt.Errorf("service: %s line %d: bad campaign id %q", path, i+1, m.ID)
		}
		if !m.State.known() {
			return nil, fmt.Errorf("service: %s line %d: campaign %s has unknown state %q", path, i+1, m.ID, m.State)
		}
		byID[m.ID] = m
	}
	ms := make([]meta, 0, len(byID))
	for _, m := range byID {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms, nil
}

// campaignNumber parses a daemon campaign ID, "c" and a decimal number
// (the form Submit allocates), so it also names a directory of the store
// root and nothing outside it.
func campaignNumber(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "c")
	if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

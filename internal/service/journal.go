package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"hauberk/internal/harness"
	"hauberk/internal/harness/store"
)

// journalFile is the daemon's one file, directly under StoreRoot: a
// store.Log holding the campaign table and every campaign's injection
// store. The table is the log's owner's lines, a meta line at a
// campaign's submission and one when it settles; a campaign's store is
// its tagged lines, the manifest line when it starts to run and then one
// record line per completed injection. Every line is one write(2) on the
// O_APPEND file and nothing is fsynced, so a kill loses at most the line
// being written, whose torn tail replay skips.
const journalFile = store.JournalFile

// meta is a campaign's durable form: one line of the daemon journal. It
// is what lets a restarted daemon rebuild its campaign table and requeue
// unfinished work.
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

// appendMeta journals c's current durable form. The snapshot is taken
// under the journal's lock, so lines land in the order of the states they
// record and a campaign's last line is never older than its latest
// persisted state, however its writers interleave.
func appendMeta(j *store.Log, c *Campaign) error {
	return j.Append(func(buf []byte) ([]byte, error) {
		c.mu.Lock()
		m := c.metaLocked()
		c.mu.Unlock()
		return appendLine(buf, m)
	})
}

// appendLine appends m's journal line, newline included, to buf.
func appendLine(buf []byte, m meta) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return buf, fmt.Errorf("service: encode %s line for %s: %w", journalFile, m.ID, err)
	}
	return append(append(buf, raw...), '\n'), nil
}

// openJournal rewrites root's journal compacted (compactJournal; tmp +
// fsync + rename, so a crash leaves the old journal or the new one) and
// opens it for appending. The compaction keeps the journal the size of
// the campaign table and its stores rather than of the daemon's history.
func openJournal(root string, ms []meta, j *store.Log) (*store.Log, error) {
	raw, err := compactJournal(ms, j)
	if err != nil {
		return nil, err
	}
	return store.CreateLog(filepath.Join(root, journalFile), raw)
}

// compactJournal is the replayed journal j rewritten one campaign at a
// time, in ID order: the campaign's meta line, then its store's lines
// (store.Log.AppendCampaign). The store lines of a campaign with no meta
// line are dropped: its submission never landed, so it was never
// accepted.
func compactJournal(ms []meta, j *store.Log) ([]byte, error) {
	var buf []byte
	for _, m := range ms {
		var err error
		if buf, err = appendLine(buf, m); err != nil {
			return nil, err
		}
		if buf, err = j.AppendCampaign(buf, m.ID); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readJournal replays root's journal (see parseJournal); a root without
// one is empty. A root that holds campaign directories of an older daemon
// — a submission.json or manifest.json per campaign — is refused: those
// campaigns would be silently forgotten.
func readJournal(root string) ([]meta, *store.Log, error) {
	for _, name := range []string{"submission.json", "manifest.json"} {
		legacy, err := filepath.Glob(filepath.Join(root, "*", name))
		if err != nil {
			return nil, nil, fmt.Errorf("service: scan %s: %w", root, err)
		}
		if len(legacy) > 0 {
			return nil, nil, fmt.Errorf("service: store root %s holds %d campaign director(ies) of an older daemon (e.g. %s); this one keeps every campaign in %s: drain them with that daemon's binary, or move the directory aside",
				root, len(legacy), legacy[0], journalFile)
		}
	}
	path := filepath.Join(root, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	return parseJournal(path, raw)
}

// LoadCampaign reads campaign id's store from the journal under root,
// through the replay a starting daemon runs, and folds its records as
// harness.LoadCampaignDir folds a campaign directory. It only reads: a
// daemon may be running on root.
func LoadCampaign(root, id string) (store.Manifest, *harness.CampaignResult, error) {
	ms, j, err := readJournal(root)
	if err != nil {
		return store.Manifest{}, nil, err
	}
	if !slices.ContainsFunc(ms, func(m meta) bool { return m.ID == id }) {
		return store.Manifest{}, nil, fmt.Errorf("%w %s in %s", ErrNotFound, id, root)
	}
	man, recs, err := j.Load(id)
	if err != nil {
		return man, nil, err
	}
	cr, err := harness.FoldCampaign(id, man, recs)
	return man, cr, err
}

// parseJournal replays the journal raw, read from path, in order: the
// last meta line for an ID wins, and each campaign's store lines are
// indexed (store.ReadLog). It returns one meta per campaign, by ID, and
// the index. A line that does not end in '}' (the partial write of a
// killed daemon) is skipped; any other malformed line, or a meta line
// naming no campaign ID or an unknown state, is corruption and an error.
func parseJournal(path string, raw []byte) ([]meta, *store.Log, error) {
	byID := make(map[string]meta)
	j, err := store.ReadLog(path, raw, func(n int, line []byte) error {
		var m meta
		if err := json.Unmarshal(line, &m); err != nil {
			return fmt.Errorf("service: %s line %d: %w", path, n, err)
		}
		if _, ok := campaignNumber(m.ID); !ok {
			return fmt.Errorf("service: %s line %d: bad campaign id %q", path, n, m.ID)
		}
		if !m.State.known() {
			return fmt.Errorf("service: %s line %d: campaign %s has unknown state %q", path, n, m.ID, m.State)
		}
		byID[m.ID] = m
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ms := make([]meta, 0, len(byID))
	for _, m := range byID {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms, j, nil
}

// campaignNumber parses a daemon campaign ID, "c" and a decimal number
// (the form Submit allocates).
func campaignNumber(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "c")
	if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

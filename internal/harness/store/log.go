package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Log is the stores of many campaigns in one append-only file: a store
// directory's journal.jsonl (store.go), hauberkd's journal among them.
// Each campaign line starts with the campaign's tag and a tab:
//
//	<tag>\tmanifest\t<Manifest as JSON>   written when the campaign starts to run
//	<tag>\t<record>                       one per completed injection (codec.go)
//
// Every other line starts with '{' and is the owner's (the daemon's
// campaign table): the log writes and replays those, but does not parse
// them. Each line is one write(2) on the O_APPEND file under the log's
// lock, so a record is on its way to disk before it counts, and lines of
// separate processes appending to one file never interleave.
//
// In memory the log keeps each campaign's manifest and the extents of its
// record lines, so a store opened on the log, or a snapshot of a campaign,
// reads back only that campaign's bytes. The extents are this process's:
// the lines it read when it opened the file and those it wrote. They stay
// valid only while no other process appends, as no one does to hauberkd's
// journal. A store directory may have a writer per shard, so its records
// are read back through a fresh Load, not through a writer's index.
type Log struct {
	mu    sync.Mutex
	path  string
	f     *os.File    // nil in a log ReadLog returns, and after Close
	src   io.ReaderAt // where extents are read from: f, or the bytes ReadLog indexed
	end   int64       // the length of the indexed file: where the next line lands
	buf   []byte
	camps map[string]*logCampaign
}

// logCampaign is one campaign's index in a Log.
type logCampaign struct {
	tag      string
	manifest *Manifest // nil until the campaign first runs
	extents  []extent  // its record lines in file order
}

// extent is a run of whole lines of a Log.
type extent struct{ off, n int64 }

// add indexes the line [off, off+n), merging it into the last extent when
// the two are adjacent, so a campaign that runs alone is one extent.
func (c *logCampaign) add(off, n int64) {
	if k := len(c.extents) - 1; k >= 0 && c.extents[k].off+c.extents[k].n == off {
		c.extents[k].n += n
		return
	}
	c.extents = append(c.extents, extent{off, n})
}

// ReadLog indexes raw, a log read from path, for reading; own, if not
// nil, receives each of the owner's lines, in order, with its line
// number. Every line a writer completes ends in '}', so a line that does
// not is the partial write of a killed process and is skipped, whatever
// its kind: a final line without its newline, or one that a later writer
// ended (OpenLog). A campaign line that is neither a manifest nor a
// record, or a manifest that disagrees with an earlier one of its
// campaign, is corruption and an error. Records are decoded only when a
// store is opened on them.
func ReadLog(path string, raw []byte, own func(n int, line []byte) error) (*Log, error) {
	l := &Log{path: path, src: bytes.NewReader(raw), camps: make(map[string]*logCampaign)}
	for n := 1; ; n++ {
		i := bytes.IndexByte(raw[l.end:], '\n')
		if i < 0 {
			return l, nil // the end, or a torn final line
		}
		off := l.end
		line := raw[off : off+int64(i)]
		l.end += int64(i) + 1
		switch {
		case len(bytes.TrimSpace(line)) == 0, line[len(line)-1] != '}':
			continue // blank, or a torn write
		case line[0] == '{':
			if own != nil {
				if err := own(n, line); err != nil {
					return nil, err
				}
			}
			continue
		}
		tag, body, ok := bytes.Cut(line, []byte{'\t'})
		if !ok || len(tag) == 0 {
			return nil, fmt.Errorf("store: %s line %d: neither a campaign's line nor an owner's", path, n)
		}
		c := l.campaign(string(tag))
		if js, ok := bytes.CutPrefix(body, []byte("manifest\t")); ok {
			var m Manifest
			if err := json.Unmarshal(js, &m); err != nil {
				return nil, fmt.Errorf("store: %s line %d: manifest of %s: %w", path, n, tag, err)
			}
			if c.manifest != nil && !c.manifest.Equal(m) {
				return nil, fmt.Errorf("store: %s line %d: %s has a second, different manifest", path, n, tag)
			}
			c.manifest = &m
			continue
		}
		if len(body) == 0 || body[0] != '{' {
			return nil, fmt.Errorf("store: %s line %d: %s line is neither a manifest nor a record", path, n, tag)
		}
		c.add(off, int64(i)+1)
	}
}

// CreateLog replaces the log at path with raw, a whole log (tmp + fsync +
// rename, so a crash leaves the old file or the new one), and opens it for
// appending. A torn final line of raw is not written.
func CreateLog(path string, raw []byte) (*Log, error) {
	l, err := ReadLog(path, raw, nil)
	if err != nil {
		return nil, err
	}
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(raw[:l.end])
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
		return nil, fmt.Errorf("store: write %s: %w", path, err)
	}
	if l.f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l.src = l.f
	return l, nil
}

// OpenLog opens the log of the store directory dir, DIR/journal.jsonl,
// for appending, creating both as needed, and indexes the lines it holds.
// A file whose last line is torn (the partial write of a killed process)
// gets a newline first, so the torn line stays a line of its own, which
// readers skip, and the next line lands whole. It adds no fsync: a line is
// on its way to disk when it is written, as everywhere in the store. A
// directory of the older format is refused.
func OpenLog(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := refuseOldLayout(dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var l *Log
	raw, err := io.ReadAll(f)
	if err == nil {
		l, err = ReadLog(path, raw, nil)
	}
	if err == nil && len(raw) > 0 && raw[len(raw)-1] != '\n' {
		raw = append(raw, '\n')
		_, err = f.Write(raw[len(raw)-1:])
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.end = f, int64(len(raw)) // past the torn line and its newline
	return l, nil
}

// campaign returns tag's index, creating it; l.mu must be held, or l not
// yet shared.
func (l *Log) campaign(tag string) *logCampaign {
	c := l.camps[tag]
	if c == nil {
		c = &logCampaign{tag: tag}
		l.camps[tag] = c
	}
	return c
}

// Append writes one owner's line: fill appends it, newline included, to
// the buffer it is given. fill runs under the log's lock, so the state it
// snapshots lands in the order of the lines.
func (l *Log) Append(fill func([]byte) ([]byte, error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := fill(l.buf[:0])
	if err != nil {
		return err
	}
	l.buf = b
	_, err = l.write()
	return err
}

// write writes l.buf as one write(2) and returns the offset it landed at;
// l.mu must be held.
func (l *Log) write() (int64, error) {
	if l.f == nil {
		return 0, errors.New("store: log closed")
	}
	off := l.end
	n, err := l.f.Write(l.buf)
	l.end += int64(n)
	if err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	return off, nil
}

// appendRecord writes r as one record line of c.
func (l *Log) appendRecord(c *logCampaign, r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(appendRecord(append(append(l.buf[:0], c.tag...), '\t'), r), '\n')
	off, err := l.write()
	if err != nil {
		return err
	}
	c.add(off, int64(len(l.buf)))
	return nil
}

// appendManifestLine appends campaign tag's manifest line to dst.
func appendManifestLine(dst []byte, tag string, m Manifest) []byte {
	raw, _ := json.Marshal(m) // strings and ints: Marshal cannot fail
	dst = append(append(dst, tag...), "\tmanifest\t"...)
	return append(append(dst, raw...), '\n')
}

// Open opens campaign tag's store on the log: shard shard/shards of the
// campaign m, with Open's rules for a directory. The first open writes the
// manifest line; a later one verifies it and loads the records.
func (l *Log) Open(tag string, m Manifest, shard, shards int, resume bool) (*Store, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("store: invalid shard %d/%d", shard, shards)
	}
	l.mu.Lock()
	c := l.campaign(tag)
	have := c.manifest
	l.mu.Unlock()
	if have != nil && !have.Equal(m) {
		return nil, fmt.Errorf("store: %s holds a different campaign (have %s/%s, want %s/%s)",
			tag, have.Program, have.PlanHash, m.Program, m.PlanHash)
	}
	raw, err := l.records(c)
	if err != nil {
		return nil, err
	}
	done, err := parseRecords(tag, raw, m.Injections, shard, shards)
	if err != nil {
		return nil, err
	}
	if !resume && len(done) > 0 {
		return nil, fmt.Errorf("store: %s already holds %d results; pass resume to continue it", tag, len(done))
	}
	if have == nil {
		l.mu.Lock()
		l.buf = appendManifestLine(l.buf[:0], tag, m)
		_, err = l.write()
		if err == nil {
			c.manifest = &m
		}
		l.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return &Store{log: l, lc: c, done: done}, nil
}

// lookup returns campaign tag's index and manifest: both nil for a tag
// the log has no line of, the manifest nil before the campaign started.
func (l *Log) lookup(tag string) (*logCampaign, *Manifest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := l.camps[tag]; c != nil {
		return c, c.manifest
	}
	return nil, nil
}

// Started reports whether campaign tag has its manifest line: whether a
// store was ever opened for it.
func (l *Log) Started(tag string) bool {
	_, m := l.lookup(tag)
	return m != nil
}

// Snapshot returns campaign tag's manifest and its record lines, with the
// tags cut. A campaign that has not started has no store: fs.ErrNotExist.
func (l *Log) Snapshot(tag string) (Manifest, []byte, error) {
	c, m := l.lookup(tag)
	if m == nil {
		return Manifest{}, nil, fmt.Errorf("store: campaign %s has not started: %w", tag, fs.ErrNotExist)
	}
	raw, err := l.records(c)
	return *m, raw, err
}

// Load merges the stores of campaigns tags as Load merges a store
// directory's: the campaigns must share one manifest, and their records
// are returned sorted by plan index, duplicates that agree once. A
// campaign that has not started has no store: fs.ErrNotExist.
func (l *Log) Load(tags ...string) (Manifest, []Record, error) {
	var m Manifest
	merged := make(map[int]Record)
	source := make(map[int]string)
	for i, tag := range tags {
		have, raw, err := l.Snapshot(tag)
		if err != nil {
			return m, nil, err
		}
		if i > 0 && !m.Equal(have) {
			return m, nil, fmt.Errorf("store: %s holds two campaigns: %s is %s/%s, %s is %s/%s",
				l.path, tags[0], m.Program, m.PlanHash, tag, have.Program, have.PlanHash)
		}
		m = have
		// Any campaign may hold any index of the plan here: salvaged
		// partial shards merge under their own tags.
		recs, err := parseRecords(tag, raw, m.Injections, 0, 1)
		if err != nil {
			return m, nil, err
		}
		for idx, r := range recs {
			if have, ok := merged[idx]; ok && have.Conflicts(r) {
				return m, nil, fmt.Errorf("store: conflicting records for injection %d: %s has outcome=%d hang=%v id=%q, %s has outcome=%d hang=%v id=%q (shards of different plans?)",
					idx, source[idx], have.Outcome, have.Hang, have.ID, tag, r.Outcome, r.Hang, r.ID)
			}
			merged[idx] = r
			source[idx] = tag
		}
	}
	return m, sorted(merged), nil
}

// AppendCampaign appends campaign tag's lines, for a compacted log, to
// dst: its manifest line, then each distinct record line once, in the
// order they were first written.
func (l *Log) AppendCampaign(dst []byte, tag string) ([]byte, error) {
	c, m := l.lookup(tag)
	if c == nil {
		return dst, nil
	}
	if m != nil {
		dst = appendManifestLine(dst, tag, *m)
	}
	raw, err := l.records(c)
	if err != nil {
		return nil, err
	}
	return appendLines(dst, tag, raw), nil
}

// AppendSnapshot appends a campaign's store as another log's Snapshot
// returns it, under tag: its manifest line and each distinct whole record
// line of raw, in one write(2). A final line without its newline is
// dropped. The lines are not indexed: the log they land in is read back
// through Load. tag, which may hold a node's name, must read back as one:
// no tab or newline, and not the '{' of an owner's line.
func (l *Log) AppendSnapshot(tag string, m Manifest, raw []byte) error {
	if tag == "" || tag[0] == '{' || strings.ContainsAny(tag, "\t\n") {
		return fmt.Errorf("store: %q cannot tag a campaign's lines", tag)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendLines(appendManifestLine(l.buf[:0], tag, m), tag, raw)
	_, err := l.write()
	return err
}

// appendLines appends each distinct non-blank whole line of raw to dst
// once, in order, behind tag and a tab.
func appendLines(dst []byte, tag string, raw []byte) []byte {
	seen := make(map[string]bool)
	for line, rest, ok := bytes.Cut(raw, []byte{'\n'}); ok; line, rest, ok = bytes.Cut(rest, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) > 0 && !seen[string(line)] {
			seen[string(line)] = true
			dst = append(append(append(append(dst, tag...), '\t'), line...), '\n')
		}
	}
	return dst
}

// records reads c's record lines with their tags cut off.
func (l *Log) records(c *logCampaign) ([]byte, error) {
	l.mu.Lock()
	ext := append([]extent(nil), c.extents...)
	src := l.src
	l.mu.Unlock()
	var size int64
	for _, e := range ext {
		size += e.n
	}
	raw := make([]byte, size)
	at := raw
	for _, e := range ext {
		if _, err := src.ReadAt(at[:e.n], e.off); err != nil {
			return nil, fmt.Errorf("store: read %s: %w", c.tag, err)
		}
		at = at[e.n:]
	}
	// Each line is the tag, a tab, the record and a newline: cut the tags,
	// in place.
	out := raw[:0]
	for skip := len(c.tag) + 1; len(raw) > 0; {
		i := bytes.IndexByte(raw, '\n')
		out = append(out, raw[skip:i+1]...)
		raw = raw[i+1:]
	}
	return out, nil
}

// sync forces the log to stable storage (fsync).
func (l *Log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("store: log closed")
	}
	return l.f.Sync()
}

// Close closes the log's file; later appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file implements the on-disk half of the segmented index: per-
// shard directories of append-only segment files, and compaction.
//
// Layout:
//
//	<dir>/index.d/shard-<k>/seg-<nnnnnnnn>
//
// Every segment starts with a header line and then holds `run ...` /
// `baseline ...` lines. Segments are append-only: recording a run
// appends ONE line to the owning shard's active (highest-numbered)
// segment — O(1) — and a segment that reaches maxSegmentLines is
// sealed by simply starting the next one. Sealed segments are
// immutable; compaction (GC) replaces a shard's segments with one
// freshly written file.
//
// Crash safety: appends are not atomic, so the LAST line of a shard's
// ACTIVE segment may be torn — Open drops it, records a warning, and
// truncates the tear away before any append (the self-heal). Sealed segments were never appended
// to after their last validated load, so damage there — like damage
// mid-file — is real corruption and still fails loudly. Compaction
// writes its replacement segment atomically (temp + rename) before
// deleting the old ones; a crash in between leaves duplicate entries,
// which the loader deduplicates by sequence number.

const (
	segmentHeader = "osprof-index-seg v1"

	// maxSegmentLines seals a segment once it holds this many body
	// lines; Archive copies it into segLimit so tests can shrink it.
	maxSegmentLines = 4096
)

// shard is one index shard's writer state. Fields are guarded by mu;
// readers never touch shards (they read the published snapshot).
type shard struct {
	id  int
	dir string

	mu          sync.Mutex
	activeSeg   int // highest segment number (0 = none yet)
	activeLines int // body lines in the active segment
}

func (s *shard) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d", n))
}

// shardFor routes a fingerprint (or any key) to its shard.
func shardFor(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % n
}

// shardLoad is the parsed state of one shard's segment files.
type shardLoad struct {
	entries     []Entry
	baselines   map[string]string
	activeSeg   int
	activeLines int
	healLen     int64
	warning     string

	// needsNewline is set when the active segment's final line parsed
	// but the file does not end in '\n' (a tear that happened to land
	// on a field boundary). Open terminates the line so the next
	// append cannot glue onto it.
	needsNewline bool
}

// loadShard reads and parses every segment of one shard directory.
func loadShard(dir string) (*shardLoad, error) {
	sl := &shardLoad{baselines: make(map[string]string), healLen: -1}
	names, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return sl, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, de := range names {
		n, ok := parseSegName(de.Name())
		if !ok {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	for i, n := range segs {
		active := i == len(segs)-1
		if err := sl.readSegment(filepath.Join(dir, fmt.Sprintf("seg-%08d", n)), active); err != nil {
			return nil, err
		}
		if active {
			sl.activeSeg = n
		}
	}
	return sl, nil
}

// parseSegName extracts the number from a seg-<n> file name.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(name, "seg-"))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// readSegment parses one segment file into sl. Only the active
// segment's trailing line may be torn; there it is dropped, the file
// length to truncate to is recorded, and a warning is noted.
func (sl *shardLoad) readSegment(path string, active bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != segmentHeader {
		return fmt.Errorf("store: %s: bad segment header", filepath.Base(path))
	}
	body := lines[1:]
	last := len(body) - 1
	for last >= 0 && strings.TrimSpace(body[last]) == "" {
		last--
	}
	offset := int64(len(lines[0]) + 1) // header line + newline
	idx := &index{baselines: sl.baselines}
	count := 0
	for n, line := range body {
		if err := parseIndexLine(idx, line); err != nil {
			if active && n == last {
				sl.warning = fmt.Sprintf("store: %s: dropped truncated trailing line %d: %v",
					filepath.Base(path), n+2, err)
				sl.healLen = offset
				break
			}
			return fmt.Errorf("store: %s line %d: %w", filepath.Base(path), n+2, err)
		}
		if strings.TrimSpace(line) != "" {
			count++
		}
		offset += int64(len(line)) + 1
	}
	sl.entries = append(sl.entries, idx.entries...)
	if active {
		sl.activeLines = count
		if sl.healLen < 0 && len(data) > 0 && data[len(data)-1] != '\n' {
			sl.needsNewline = true
		}
	}
	return nil
}

// index is the transient parse target of readSegment.
type index struct {
	entries   []Entry
	baselines map[string]string
}

// parseIndexLine parses one segment body line (blank lines are no-ops).
func parseIndexLine(idx *index, line string) error {
	fields := strings.Fields(line)
	switch {
	case len(fields) == 0:
		return nil
	case fields[0] == "run":
		// The trailing name is %q-quoted and may contain spaces,
		// optionally followed by a %q-quoted label: split off the
		// four fixed fields, then peel quoted strings off the rest.
		// Unlabeled runs have no label field.
		parts := strings.SplitN(line, " ", 5)
		if len(parts) != 5 {
			return fmt.Errorf("malformed run entry %q", line)
		}
		seq, err := strconv.Atoi(parts[1])
		if err != nil {
			return err
		}
		nameQ, err := strconv.QuotedPrefix(parts[4])
		if err != nil {
			return fmt.Errorf("name: %w", err)
		}
		name, err := strconv.Unquote(nameQ)
		if err != nil {
			return fmt.Errorf("name: %w", err)
		}
		label := ""
		if tail := strings.TrimSpace(parts[4][len(nameQ):]); tail != "" {
			label, err = strconv.Unquote(tail)
			if err != nil {
				return fmt.Errorf("label: %w", err)
			}
		}
		fp := parts[3]
		if fp == "-" {
			fp = ""
		}
		idx.entries = append(idx.entries, Entry{
			Seq: seq, ID: parts[2], Fingerprint: fp, Name: name, Label: label,
		})
		return nil
	case fields[0] == "baseline" && len(fields) == 3:
		idx.baselines[fields[1]] = fields[2]
		return nil
	default:
		return fmt.Errorf("unrecognized %q", line)
	}
}

// formatEntry renders one run line of the segment grammar.
func formatEntry(b *strings.Builder, e Entry) {
	if e.Label != "" {
		fmt.Fprintf(b, "run %d %s %s %q %q\n", e.Seq, e.ID, orDash(e.Fingerprint), e.Name, e.Label)
	} else {
		fmt.Fprintf(b, "run %d %s %s %q\n", e.Seq, e.ID, orDash(e.Fingerprint), e.Name)
	}
}

// appendLines appends pre-rendered body lines to the shard's active
// segment, healing a recorded torn tail first and rotating to a new
// segment whenever the active one is full. Caller holds s.mu.
func (s *shard) appendLines(lines []string, segLimit int) error {
	for len(lines) > 0 {
		if s.activeSeg == 0 || s.activeLines >= segLimit {
			if err := s.rotate(); err != nil {
				return err
			}
		}
		n := segLimit - s.activeLines
		if n > len(lines) {
			n = len(lines)
		}
		if err := s.appendToActive(lines[:n]); err != nil {
			return err
		}
		lines = lines[n:]
	}
	return nil
}

// rotate seals the active segment by starting the next one.
func (s *shard) rotate() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	next := s.activeSeg + 1
	if err := os.WriteFile(s.segPath(next), []byte(segmentHeader+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.activeSeg, s.activeLines = next, 0
	return nil
}

// appendToActive writes lines to the active segment. Torn tails were
// already truncated away when the archive was opened, so the append
// always lands after a whole line.
func (s *shard) appendToActive(lines []string) error {
	path := s.segPath(s.activeSeg)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
	}
	if _, err := f.WriteString(b.String()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.activeLines += len(lines)
	return nil
}

// compact atomically replaces the shard's segments with one fresh
// segment holding exactly the given entries and baselines. Caller
// holds s.mu. The replacement lands (rename) before the old segments
// are removed, so a crash leaves duplicates, never losses.
func (s *shard) compact(entries []Entry, baselines map[string]string) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	old, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	next := s.activeSeg + 1
	var b strings.Builder
	b.WriteString(segmentHeader + "\n")
	for _, e := range entries {
		formatEntry(&b, e)
	}
	fps := make([]string, 0, len(baselines))
	for fp := range baselines {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		fmt.Fprintf(&b, "baseline %s %s\n", fp, baselines[fp])
	}
	if err := atomicWrite(s.segPath(next), []byte(b.String())); err != nil {
		return err
	}
	for _, de := range old {
		if n, ok := parseSegName(de.Name()); ok && n < next {
			if err := os.Remove(filepath.Join(s.dir, de.Name())); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
	}
	s.activeSeg = next
	s.activeLines = len(entries) + len(baselines)
	return nil
}

// orDash substitutes "-" for an empty fingerprint so the index stays
// whitespace-splittable.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// atomicWrite writes data to path via a temp file and rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

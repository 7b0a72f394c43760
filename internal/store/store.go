// Package store is the persistent profile archive: a content-addressed
// on-disk library of recorded runs (core.Run envelopes). OSprof's
// method is comparative — profiles only pay off when a run can be held
// against another OS version, kernel configuration, or a blessed
// baseline (paper §3.2, §5) — so runs must outlive the process that
// collected them. The archive makes a run a durable, addressable
// artifact:
//
//   - objects/<id[:2]>/<id[2:]> holds the serialized run, named by the
//     sha256 of its bytes. Recording the same deterministic world twice
//     produces byte-identical envelopes and therefore the same object:
//     reruns deduplicate for free, and any bit rot is detectable.
//   - index.d/shard-<k>/seg-<n> is the segmented run index: every
//     recorded run is ONE appended line in its fingerprint's shard
//     (plus one baseline pointer line per blessing). Appends are O(1),
//     and full segments are sealed and later folded together by
//     compaction (GC). See segment.go for the on-disk details,
//     including how a torn trailing line self-heals.
//
// Concurrency: the entire index lives in memory as an immutable
// snapshot behind an atomic pointer. Readers (List, Latest, Resolve,
// ...) never take a lock and never touch disk — they load the current
// snapshot — so lookups stay wait-free under a heavy ingest load.
// Writers serialize per shard (one appender per shard; writers to
// different shards proceed in parallel) and publish a new snapshot
// after the disk append lands.
//
// Lookups answer the questions differential analysis asks: the latest
// run of a fingerprint or scenario name, the baseline it should be
// judged against, and the full or paged listing. GC trims history per
// fingerprint while pinning baselines, then compacts every shard.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"osprof/internal/core"
)

// numShards fixes how many index shards an archive writes. Fingerprints
// route to shards by hash, so the constant must not change for existing
// archives (reads would still work — every shard directory present is
// loaded — but same-fingerprint dedup relies on stable routing).
const numShards = 4

// Archive is an opened on-disk run archive. It is safe for concurrent
// use by multiple goroutines (the ingest service archives batches while
// listings stream). An Archive serves reads from its own in-memory
// index, loaded at Open: writes by another process (or another handle
// on the same directory) are not visible until the archive is
// reopened, and concurrent cross-process writers may lose index
// entries to each other — though objects, being content addressed, can
// never corrupt.
type Archive struct {
	dir      string
	shards   [numShards]*shard
	segLimit int // lines per segment before rotation (tests shrink it)

	// pubMu guards sequence-number allocation and snapshot
	// publication; it is never held across disk IO.
	pubMu   sync.Mutex
	nextSeq int
	snap    atomic.Pointer[snapshot]

	// warning is set once by Open and read-only afterwards.
	warning string
}

// snapshot is the immutable in-memory index image readers operate on.
// entries is ascending by Seq; a published snapshot is never mutated
// (appends build a new one, sharing the backing array where safe).
type snapshot struct {
	entries   []Entry
	baselines map[string]string // fingerprint -> run ID
}

// Entry describes one recorded run in the index.
type Entry struct {
	// Seq is the record sequence number (monotonic per archive).
	Seq int

	// ID is the content address: sha256 hex of the serialized run.
	ID string

	// Fingerprint keys the producing configuration
	// (scenario.Spec.Fingerprint); may be empty for ad-hoc runs.
	Fingerprint string

	// Name is the run's profile-set name (the scenario name).
	Name string

	// Label is the run's LabelMetaKey metadata (empty for unlabeled
	// runs). Indexed so corpus construction can find the labeled
	// reference runs without loading every archived object.
	Label string
}

// LabelMetaKey is the run-envelope metadata key that marks a run as a
// labeled reference-corpus member; Put mirrors it into the index.
const LabelMetaKey = "label"

// PutResult reports one run of a PutBatch: its content address and
// whether a new index entry was created (false for the deduplicated
// rerun case).
type PutResult struct {
	ID      string
	Created bool
}

// Open opens (creating if needed) the archive rooted at dir, loading
// the full index into memory. A torn trailing line in a shard's active
// segment — the mark of a crashed appender — is healed here (truncated
// away) and reported via Warning; real corruption fails Open loudly.
// A directory holding a bare single-file index (the format that
// predates index.d/) is refused untouched.
func Open(dir string) (*Archive, error) {
	if _, err := os.Stat(filepath.Join(dir, "index.d")); os.IsNotExist(err) {
		old := filepath.Join(dir, "index")
		if _, err := os.Stat(old); err == nil {
			return nil, fmt.Errorf("store: %s: pre-segment index format is no longer supported", old)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	a := &Archive{dir: dir, segLimit: maxSegmentLines}
	for i := range a.shards {
		a.shards[i] = &shard{id: i, dir: filepath.Join(dir, "index.d", fmt.Sprintf("shard-%d", i))}
	}
	if err := a.loadState(); err != nil {
		return nil, err
	}
	return a, nil
}

// loadState reads every shard of the segmented index into the first
// snapshot.
func (a *Archive) loadState() error {
	snap := &snapshot{baselines: make(map[string]string)}
	var warnings []string
	var all []Entry
	for _, sh := range a.shards {
		sl, err := loadShard(sh.dir)
		if err != nil {
			return err
		}
		sh.activeSeg, sh.activeLines = sl.activeSeg, sl.activeLines
		if sl.healLen >= 0 {
			// Heal the torn tail now: truncating the partial line
			// keeps the invariant that every stored line is whole,
			// so the next Open comes back clean.
			if err := os.Truncate(sh.segPath(sh.activeSeg), sl.healLen); err != nil {
				return fmt.Errorf("store: heal shard-%d: %w", sh.id, err)
			}
			warnings = append(warnings, sl.warning)
		} else if sl.needsNewline {
			// The final line parsed but its newline is missing (a
			// tear on a field boundary): terminate it so an append
			// cannot glue onto it.
			f, err := os.OpenFile(sh.segPath(sh.activeSeg), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: heal shard-%d: %w", sh.id, err)
			}
			_, werr := f.WriteString("\n")
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("store: heal shard-%d: %w", sh.id, werr)
			}
		}
		all = append(all, sl.entries...)
		for fp, id := range sl.baselines {
			snap.baselines[fp] = id
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	// An interrupted compaction can leave a shard's old segments beside
	// their replacement: identical entries, deduplicated by sequence
	// number.
	for _, e := range all {
		if n := len(snap.entries); n > 0 && snap.entries[n-1].Seq == e.Seq {
			continue
		}
		snap.entries = append(snap.entries, e)
	}

	a.nextSeq = 1
	if n := len(snap.entries); n > 0 {
		a.nextSeq = snap.entries[n-1].Seq + 1
	}
	a.snap.Store(snap)
	a.warning = strings.Join(warnings, "; ")
	return nil
}

// Dir returns the archive's root directory.
func (a *Archive) Dir() string { return a.dir }

func (a *Archive) objectPath(id string) string {
	return filepath.Join(a.dir, "objects", id[:2], id[2:])
}

// Put archives the run and returns its content address. created is
// false when an identical run (same bytes, hence same ID) was already
// recorded as the latest of this fingerprint — the deduplicated rerun
// case.
func (a *Archive) Put(run *core.Run) (id string, created bool, err error) {
	res, err := a.PutBatch([]*core.Run{run})
	if err != nil {
		return "", false, err
	}
	return res[0].ID, res[0].Created, nil
}

// PutBatch archives many runs with one index append per shard and one
// snapshot publication: the batched ingest path amortizes the per-Put
// disk and publication cost across the whole flush. Results align with
// the input; dedup considers earlier runs of the same batch.
func (a *Archive) PutBatch(runs []*core.Run) ([]PutResult, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	// Serialize and write objects before taking any lock: content
	// addressing makes object writes conflict-free.
	results := make([]PutResult, len(runs))
	for i, run := range runs {
		var buf bytes.Buffer
		if err := core.WriteRun(&buf, run); err != nil {
			return nil, fmt.Errorf("store: serialize: %w", err)
		}
		sum := sha256.Sum256(buf.Bytes())
		results[i].ID = hex.EncodeToString(sum[:])
		if err := a.writeObject(results[i].ID, buf.Bytes()); err != nil {
			return nil, err
		}
	}

	// Lock the involved shards in ascending order (deadlock-free with
	// concurrent batches and with GC, which locks all of them).
	var involved [numShards]bool
	for _, run := range runs {
		involved[shardFor(run.Fingerprint, numShards)] = true
	}
	for k, in := range involved {
		if in {
			a.shards[k].mu.Lock()
			defer a.shards[k].mu.Unlock()
		}
	}

	// Allocate sequence numbers and decide dedup against the latest
	// published snapshot: same-fingerprint writers are excluded by the
	// shard lock, so the snapshot view of "latest of fingerprint" is
	// stable here.
	snap := a.snap.Load()
	lastID := make(map[string]string) // fingerprint -> latest ID, batch-local
	var newEntries []Entry
	var lines [numShards][]string
	a.pubMu.Lock()
	for i, run := range runs {
		fp := run.Fingerprint
		latest, ok := lastID[fp]
		if !ok {
			if e, found := latestOf(snap.entries, func(e Entry) bool { return e.Fingerprint == fp }); found {
				latest = e.ID
			}
		}
		if latest == results[i].ID {
			lastID[fp] = latest
			continue // rerun of the same deterministic world: same artifact
		}
		e := Entry{
			Seq: a.nextSeq, ID: results[i].ID, Fingerprint: fp, Name: run.Name(),
			Label: run.Meta[LabelMetaKey],
		}
		a.nextSeq++
		results[i].Created = true
		lastID[fp] = e.ID
		newEntries = append(newEntries, e)
		var b strings.Builder
		formatEntry(&b, e)
		lines[shardFor(fp, numShards)] = append(lines[shardFor(fp, numShards)], b.String())
	}
	a.pubMu.Unlock()

	// One disk append per involved shard, then one publication.
	for k, ls := range lines {
		if len(ls) == 0 {
			continue
		}
		if err := a.shards[k].appendLines(ls, a.segLimit); err != nil {
			return nil, err
		}
	}
	a.publishEntries(newEntries)
	return results, nil
}

// publishEntries installs a new snapshot containing the appended
// entries. The common in-order case extends the current backing array
// in place — safe because readers are bounded by their own slice
// length and pubMu ensures a single extender — while out-of-order
// publication (concurrent writers on different shards racing their
// sequence numbers) falls back to a copy-and-insert.
func (a *Archive) publishEntries(es []Entry) {
	if len(es) == 0 {
		return
	}
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	cur := a.snap.Load()
	entries := cur.entries
	for _, e := range es {
		if n := len(entries); n == 0 || entries[n-1].Seq < e.Seq {
			entries = append(entries, e)
			continue
		}
		i := sort.Search(len(entries), func(i int) bool { return entries[i].Seq > e.Seq })
		merged := make([]Entry, 0, len(entries)+1)
		merged = append(merged, entries[:i]...)
		merged = append(merged, e)
		merged = append(merged, entries[i:]...)
		entries = merged
	}
	a.snap.Store(&snapshot{entries: entries, baselines: cur.baselines})
}

// writeObject atomically writes the object file unless it already
// exists (content addressing makes overwrites no-ops by definition).
func (a *Archive) writeObject(id string, data []byte) error {
	path := a.objectPath(id)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWrite(path, data)
}

// Get loads a run by content address; ref may be a unique ID prefix.
func (a *Archive) Get(ref string) (*core.Run, error) {
	id, err := a.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return a.getByID(id)
}

func (a *Archive) getByID(id string) (*core.Run, error) {
	f, err := os.Open(a.objectPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: run %s: %w", short(id), err)
	}
	defer f.Close()
	run, err := core.ReadRun(f)
	if err != nil {
		return nil, fmt.Errorf("store: run %s: %w", short(id), err)
	}
	return run, nil
}

// Resolve expands a (possibly abbreviated) run ID to the full content
// address recorded in the index.
func (a *Archive) Resolve(ref string) (string, error) {
	if len(ref) == 2*sha256.Size {
		return ref, nil
	}
	snap := a.snap.Load()
	var match string
	for _, e := range snap.entries {
		if strings.HasPrefix(e.ID, ref) {
			if match != "" && match != e.ID {
				return "", fmt.Errorf("store: ambiguous run prefix %q", ref)
			}
			match = e.ID
		}
	}
	if match == "" {
		return "", fmt.Errorf("store: no run matches %q", ref)
	}
	return match, nil
}

// ResolveRef expands any run reference to the full content address:
// "latest:<name>" (the most recent run of a set name),
// "baseline:<name>" (the blessed baseline of a set name), or a
// (possibly abbreviated) run ID. The one resolver shared by the CLI
// and the HTTP service, so reference forms cannot diverge between
// them.
func (a *Archive) ResolveRef(ref string) (string, error) {
	switch {
	case strings.HasPrefix(ref, "latest:"):
		name := strings.TrimPrefix(ref, "latest:")
		e, ok, err := a.LatestByName(name)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("store: no recorded run named %q", name)
		}
		return e.ID, nil
	case strings.HasPrefix(ref, "baseline:"):
		name := strings.TrimPrefix(ref, "baseline:")
		e, ok, err := a.BaselineByName(name)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("store: no baseline named %q", name)
		}
		return e.ID, nil
	default:
		return a.Resolve(ref)
	}
}

// List returns every index entry in record order.
func (a *Archive) List() ([]Entry, error) {
	snap := a.snap.Load()
	out := make([]Entry, len(snap.entries))
	copy(out, snap.entries)
	return out, nil
}

// Tail returns the number of index entries and the newest one (the
// zero Entry when the index is empty), read from the current snapshot
// without copying it: O(1) however large the archive grows.
func (a *Archive) Tail() (n int, newest Entry) {
	snap := a.snap.Load()
	if n = len(snap.entries); n > 0 {
		newest = snap.entries[n-1]
	}
	return n, newest
}

// ListPage returns up to limit entries carrying the given label (every
// entry when label is empty) with sequence numbers strictly greater
// than after, in record order, plus whether more matching entries
// remain. The cursor is the last returned entry's Seq: paging a listing
// is O(page) plus the entries a label filter steps over, and a
// concurrent append never shifts earlier pages. limit <= 0 means no
// limit.
func (a *Archive) ListPage(label string, after, limit int) ([]Entry, bool, error) {
	es := a.snap.Load().entries
	start := sort.Search(len(es), func(i int) bool { return es[i].Seq > after })
	rest := es[start:]
	if label == "" {
		if limit <= 0 || limit >= len(rest) {
			return append([]Entry{}, rest...), false, nil
		}
		return append([]Entry{}, rest[:limit]...), true, nil
	}
	out := []Entry{}
	for _, e := range rest {
		if e.Label != label {
			continue
		}
		if limit > 0 && len(out) == limit {
			return out, true, nil
		}
		out = append(out, e)
	}
	return out, false, nil
}

// ListLabeled returns the index entries that carry a label, in record
// order.
func (a *Archive) ListLabeled() ([]Entry, error) {
	var out []Entry
	for _, e := range a.snap.Load().entries {
		if e.Label != "" {
			out = append(out, e)
		}
	}
	return out, nil
}

// Latest returns the most recent entry recorded for fingerprint.
func (a *Archive) Latest(fingerprint string) (Entry, bool, error) {
	snap := a.snap.Load()
	e, ok := latestOf(snap.entries, func(e Entry) bool { return e.Fingerprint == fingerprint })
	return e, ok, nil
}

// LatestByName returns the most recent entry whose set name matches
// (the scenario name, across fingerprints — seeds and config tweaks
// change the fingerprint but keep the name).
func (a *Archive) LatestByName(name string) (Entry, bool, error) {
	snap := a.snap.Load()
	e, ok := latestOf(snap.entries, func(e Entry) bool { return e.Name == name })
	return e, ok, nil
}

func latestOf(entries []Entry, match func(Entry) bool) (Entry, bool) {
	for i := len(entries) - 1; i >= 0; i-- {
		if match(entries[i]) {
			return entries[i], true
		}
	}
	return Entry{}, false
}

// SetBaseline marks the run (ID or unique prefix) as the baseline for
// fingerprint: the reference `osprof diff` judges later runs against.
func (a *Archive) SetBaseline(fingerprint, ref string) error {
	if fingerprint == "" {
		return fmt.Errorf("store: baseline needs a fingerprint")
	}
	id, err := a.Resolve(ref)
	if err != nil {
		return err
	}
	sh := a.shards[shardFor(fingerprint, numShards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	snap := a.snap.Load()
	if _, ok := latestOf(snap.entries, func(e Entry) bool { return e.ID == id }); !ok {
		return fmt.Errorf("store: baseline %s not in the index", short(id))
	}
	if err := sh.appendLines([]string{fmt.Sprintf("baseline %s %s\n", fingerprint, id)}, a.segLimit); err != nil {
		return err
	}
	a.pubMu.Lock()
	cur := a.snap.Load()
	baselines := make(map[string]string, len(cur.baselines)+1)
	for k, v := range cur.baselines {
		baselines[k] = v
	}
	baselines[fingerprint] = id
	a.snap.Store(&snapshot{entries: cur.entries, baselines: baselines})
	a.pubMu.Unlock()
	return nil
}

// Baseline returns the baseline entry for fingerprint.
func (a *Archive) Baseline(fingerprint string) (Entry, bool, error) {
	snap := a.snap.Load()
	id, ok := snap.baselines[fingerprint]
	if !ok {
		return Entry{}, false, nil
	}
	e, ok := latestOf(snap.entries, func(e Entry) bool { return e.ID == id })
	return e, ok, nil
}

// BaselineByName returns the most recently blessed baseline among runs
// whose set name matches, regardless of fingerprint: a scenario
// re-recorded under a new seed or config must not make its previously
// blessed baseline unreachable by name.
func (a *Archive) BaselineByName(name string) (Entry, bool, error) {
	snap := a.snap.Load()
	e, ok := latestOf(snap.entries, func(e Entry) bool {
		return e.Name == name && snap.baselines[e.Fingerprint] == e.ID
	})
	return e, ok, nil
}

// Baselines returns the fingerprint -> run ID baseline map.
func (a *Archive) Baselines() (map[string]string, error) {
	snap := a.snap.Load()
	out := make(map[string]string, len(snap.baselines))
	for k, v := range snap.baselines {
		out[k] = v
	}
	return out, nil
}

// GC keeps the newest keep entries per fingerprint (plus every
// baseline), drops the rest from the index, and deletes objects no
// remaining entry references. It returns the removed run IDs. Every
// shard is compacted to a single fresh segment in the process.
func (a *Archive) GC(keep int) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	// All shard locks, ascending: no appender can be in flight, so the
	// published snapshot is the complete, stable index.
	for _, sh := range a.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	snap := a.snap.Load()
	pinned := make(map[string]bool, len(snap.baselines))
	for _, id := range snap.baselines {
		pinned[id] = true
	}
	seen := make(map[string]int) // fingerprint -> kept count
	var kept []Entry
	for i := len(snap.entries) - 1; i >= 0; i-- {
		e := snap.entries[i]
		if seen[e.Fingerprint] < keep || pinned[e.ID] {
			seen[e.Fingerprint]++
			kept = append(kept, e)
		}
	}
	// kept was gathered newest-first; restore record order.
	sort.Slice(kept, func(i, j int) bool { return kept[i].Seq < kept[j].Seq })

	live := make(map[string]bool, len(kept))
	for _, e := range kept {
		live[e.ID] = true
	}
	var removed []string
	for _, e := range snap.entries {
		if !live[e.ID] {
			live[e.ID] = true // dedup: the same object may back several entries
			removed = append(removed, e.ID)
			if err := os.Remove(a.objectPath(e.ID)); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("store: gc: %w", err)
			}
		}
	}
	if err := a.compactLocked(kept, snap.baselines); err != nil {
		return nil, err
	}
	return removed, nil
}

// Compact rewrites every shard to a single fresh segment holding the
// current index — the maintenance pass that folds a long append
// history (and any sealed segments) back into minimal files.
func (a *Archive) Compact() error {
	for _, sh := range a.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	snap := a.snap.Load()
	return a.compactLocked(snap.entries, snap.baselines)
}

// compactLocked rewrites all shards to hold exactly entries/baselines
// and publishes the matching snapshot. Caller holds every shard lock.
func (a *Archive) compactLocked(entries []Entry, baselines map[string]string) error {
	var perEntries [numShards][]Entry
	var perBase [numShards]map[string]string
	for i := range perBase {
		perBase[i] = make(map[string]string)
	}
	for _, e := range entries {
		k := shardFor(e.Fingerprint, numShards)
		perEntries[k] = append(perEntries[k], e)
	}
	for fp, id := range baselines {
		perBase[shardFor(fp, numShards)][fp] = id
	}
	for i, sh := range a.shards {
		if err := sh.compact(perEntries[i], perBase[i]); err != nil {
			return err
		}
	}
	a.pubMu.Lock()
	fresh := make([]Entry, len(entries))
	copy(fresh, entries)
	a.snap.Store(&snapshot{entries: fresh, baselines: baselines})
	a.pubMu.Unlock()
	return nil
}

// short abbreviates a run ID for messages.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// Warning returns the note recorded when Open had to recover from
// damage (empty after a clean load): a truncated trailing line in a
// shard's active segment — the torn tail a crashed appender leaves —
// is dropped and truncated away rather than bricking the archive, so
// a subsequent Open comes back clean.
func (a *Archive) Warning() string { return a.warning }

package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"osprof/internal/core"
)

func testRun(fp, name string, latencies ...uint64) *core.Run {
	s := core.NewSet(name)
	for _, l := range latencies {
		s.Record("read", l)
	}
	return &core.Run{
		Fingerprint: fp,
		Meta:        map[string]string{"scenario": name},
		Set:         s,
	}
}

func open(t *testing.T) *Archive {
	t.Helper()
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPutGetRoundTrip(t *testing.T) {
	a := open(t)
	id, created, err := a.Put(testRun("fp1", "ext2/grep", 100, 5000))
	if err != nil || !created {
		t.Fatalf("Put: id=%s created=%v err=%v", id, created, err)
	}
	if len(id) != 64 {
		t.Fatalf("id %q is not a sha256 hex", id)
	}
	got, err := a.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != "fp1" || got.Name() != "ext2/grep" || got.Set.TotalOps() != 2 {
		t.Errorf("round trip mangled: %+v", got)
	}
	if got.Meta["scenario"] != "ext2/grep" {
		t.Errorf("meta lost: %v", got.Meta)
	}
}

// Identical runs are content-addressed into the same object: rerunning
// a deterministic world deduplicates instead of growing the archive.
func TestPutDeduplicatesIdenticalRuns(t *testing.T) {
	a := open(t)
	id1, created1, _ := a.Put(testRun("fp1", "s", 100))
	id2, created2, err := a.Put(testRun("fp1", "s", 100))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("identical runs got different ids: %s vs %s", id1, id2)
	}
	if !created1 || created2 {
		t.Errorf("created flags: %v %v, want true false", created1, created2)
	}
	entries, _ := a.List()
	if len(entries) != 1 {
		t.Errorf("index grew on dedup: %d entries", len(entries))
	}
	// A different run of the same fingerprint appends.
	id3, created3, _ := a.Put(testRun("fp1", "s", 100, 200))
	if id3 == id1 || !created3 {
		t.Errorf("different content must create: id=%s created=%v", id3, created3)
	}
	entries, _ = a.List()
	if len(entries) != 2 || entries[0].Seq >= entries[1].Seq {
		t.Errorf("bad entries: %+v", entries)
	}
}

func TestLatestAndLatestByName(t *testing.T) {
	a := open(t)
	a.Put(testRun("fp1", "s", 100))
	id2, _, _ := a.Put(testRun("fp1", "s", 200))
	id3, _, _ := a.Put(testRun("fp2", "other", 300))

	e, ok, err := a.Latest("fp1")
	if err != nil || !ok || e.ID != id2 {
		t.Errorf("Latest(fp1) = %+v ok=%v err=%v, want %s", e, ok, err, id2)
	}
	e, ok, _ = a.LatestByName("other")
	if !ok || e.ID != id3 || e.Fingerprint != "fp2" {
		t.Errorf("LatestByName = %+v ok=%v", e, ok)
	}
	if _, ok, _ := a.Latest("nope"); ok {
		t.Error("Latest found a ghost fingerprint")
	}
}

func TestGetByUniquePrefix(t *testing.T) {
	a := open(t)
	id, _, _ := a.Put(testRun("fp1", "s", 100))
	got, err := a.Get(id[:10])
	if err != nil || got.Set.TotalOps() != 1 {
		t.Fatalf("prefix get: %v", err)
	}
	if _, err := a.Get("zzzz"); err == nil {
		t.Error("Get accepted an unknown prefix")
	}
}

func TestBaselines(t *testing.T) {
	a := open(t)
	id1, _, _ := a.Put(testRun("fp1", "s", 100))
	id2, _, _ := a.Put(testRun("fp1", "s", 200))

	if err := a.SetBaseline("fp1", id1[:12]); err != nil {
		t.Fatal(err)
	}
	e, ok, err := a.Baseline("fp1")
	if err != nil || !ok || e.ID != id1 {
		t.Errorf("Baseline = %+v ok=%v err=%v, want %s", e, ok, err, id1)
	}
	// Latest is unaffected by blessing.
	if e, _, _ := a.Latest("fp1"); e.ID != id2 {
		t.Errorf("Latest moved to the baseline: %s", e.ID)
	}
	if _, ok, _ := a.Baseline("fp2"); ok {
		t.Error("baseline for unknown fingerprint")
	}
	if err := a.SetBaseline("fp1", "deadbeef"); err == nil {
		t.Error("SetBaseline accepted an unknown run")
	}
	if err := a.SetBaseline("", id1); err == nil {
		t.Error("SetBaseline accepted an empty fingerprint")
	}
	bl, _ := a.Baselines()
	if bl["fp1"] != id1 {
		t.Errorf("Baselines() = %v", bl)
	}
}

// A blessed baseline stays reachable by scenario name even after the
// scenario is re-recorded under a different fingerprint (new seed or
// config): BaselineByName scans blessed runs, not the latest run's
// fingerprint.
func TestBaselineByNameSurvivesReRecord(t *testing.T) {
	a := open(t)
	id1, _, _ := a.Put(testRun("fp-seed1", "s", 100))
	if err := a.SetBaseline("fp-seed1", id1); err != nil {
		t.Fatal(err)
	}
	// Re-record the same scenario name under a different fingerprint.
	a.Put(testRun("fp-seed2", "s", 200))

	e, ok, err := a.BaselineByName("s")
	if err != nil || !ok || e.ID != id1 || e.Fingerprint != "fp-seed1" {
		t.Errorf("BaselineByName = %+v ok=%v err=%v, want %s", e, ok, err, id1)
	}
	// A newer blessing wins.
	id3, _, _ := a.Put(testRun("fp-seed2", "s", 300))
	if err := a.SetBaseline("fp-seed2", id3); err != nil {
		t.Fatal(err)
	}
	if e, _, _ := a.BaselineByName("s"); e.ID != id3 {
		t.Errorf("newest blessing not returned: %s, want %s", e.ID, id3)
	}
	if _, ok, _ := a.BaselineByName("ghost"); ok {
		t.Error("baseline for unknown name")
	}
}

func TestGCKeepsLatestAndBaselines(t *testing.T) {
	a := open(t)
	idOld, _, _ := a.Put(testRun("fp1", "s", 100))
	idMid, _, _ := a.Put(testRun("fp1", "s", 200))
	idNew, _, _ := a.Put(testRun("fp1", "s", 300))
	idOther, _, _ := a.Put(testRun("fp2", "o", 400))
	if err := a.SetBaseline("fp1", idOld); err != nil {
		t.Fatal(err)
	}

	removed, err := a.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != idMid {
		t.Errorf("removed %v, want [%s]", removed, idMid)
	}
	for _, id := range []string{idOld, idNew, idOther} {
		if _, err := a.Get(id); err != nil {
			t.Errorf("GC dropped a live run %s: %v", id[:12], err)
		}
	}
	if _, err := a.Get(idMid); err == nil {
		t.Error("GC kept the pruned run readable via the index")
	}
	if _, err := os.Stat(a.objectPath(idMid)); !os.IsNotExist(err) {
		t.Error("GC left the pruned object on disk")
	}
	// Entries stay in record order after GC.
	entries, _ := a.List()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Seq >= entries[i].Seq {
			t.Errorf("entries out of order after GC: %+v", entries)
		}
	}
}

// The parallel runner archives from worker goroutines; concurrent Puts
// must never lose entries or corrupt the index.
func TestConcurrentPuts(t *testing.T) {
	a := open(t)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := a.Put(testRun("fp", "s", uint64(100+i))); err != nil {
				t.Errorf("Put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	entries, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Errorf("%d entries, want %d", len(entries), n)
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if seen[e.Seq] {
			t.Errorf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// Set names may contain spaces (core imposes no restrictions); the
// quoted index field must survive them — a space once permanently
// corrupted the index because load split on whitespace.
func TestNamesWithSpacesSurviveIndexRoundTrip(t *testing.T) {
	a := open(t)
	id, _, err := a.Put(testRun("fp1", `name with "quotes" and spaces`, 100))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := a.List()
	if err != nil {
		t.Fatalf("index unreadable after spaced name: %v", err)
	}
	if len(entries) != 1 || entries[0].Name != `name with "quotes" and spaces` {
		t.Errorf("entries: %+v", entries)
	}
	if e, ok, err := a.LatestByName(`name with "quotes" and spaces`); err != nil || !ok || e.ID != id {
		t.Errorf("LatestByName: %+v ok=%v err=%v", e, ok, err)
	}
	// The archive keeps working (further writes load the index).
	if _, _, err := a.Put(testRun("fp2", "plain", 200)); err != nil {
		t.Errorf("archive wedged after spaced name: %v", err)
	}
}

// Put mirrors the run's label metadata into the index entry, and the
// label survives the index save/load round trip (GC rewrites the
// index, so losing it there would silently shrink the corpus).
func TestLabelIndexedAndRoundTrips(t *testing.T) {
	a := open(t)
	labeled := testRun("fpL", "corpus/ext2 preempt", 100)
	labeled.Meta[LabelMetaKey] = "ext2-preempt c256" // spaces must survive
	if _, _, err := a.Put(labeled); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Put(testRun("fpU", "ext2/grep", 200)); err != nil {
		t.Fatal(err)
	}
	entries, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Label != "ext2-preempt c256" {
		t.Errorf("labeled entry Label = %q", entries[0].Label)
	}
	if entries[1].Label != "" {
		t.Errorf("unlabeled entry Label = %q", entries[1].Label)
	}
	indexed, err := a.ListLabeled()
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != 1 || indexed[0].Label != "ext2-preempt c256" {
		t.Errorf("ListLabeled = %+v", indexed)
	}
	// The label survives the on-disk round trip: a fresh Open rebuilds
	// the index from the segment files alone.
	reopened, err := Open(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	indexed, err = reopened.ListLabeled()
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != 1 || indexed[0].Label != "ext2-preempt c256" {
		t.Errorf("reopened ListLabeled = %+v", indexed)
	}
}

func TestCorruptIndexRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index"), []byte("not an index\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "index") {
		t.Errorf("corrupt index not detected: %v", err)
	}
}

// A directory holding only a pre-segment single-file index is refused:
// Open names the file instead of presenting an empty archive, and
// writes nothing beside it.
func TestOpenRefusesPreSegmentIndex(t *testing.T) {
	dir := t.TempDir()
	index := filepath.Join(dir, "index")
	if err := os.WriteFile(index, []byte("osprof-index v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), index) {
		t.Fatalf("Open = %v, want an error naming %s", err, index)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "index" {
		t.Errorf("Open left %v behind, want only the index file", des)
	}
}

// No temp droppings survive a Put (atomic-write hygiene).
func TestNoTempFilesLeft(t *testing.T) {
	a := open(t)
	a.Put(testRun("fp", "s", 100))
	var stray []string
	filepath.Walk(a.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) > 0 {
		t.Errorf("temp files left behind: %v", stray)
	}
}

// ResolveRef's error paths, table-driven: every reference form that
// cannot resolve must fail with a message naming the problem (the CLI
// and the HTTP service both surface these verbatim), and resolvable
// forms must keep working against the same populated archive.
func TestResolveRefErrorPaths(t *testing.T) {
	populated := open(t)
	idA, _, err := populated.Put(testRun("fp-a", "ext2/grep", 100))
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := populated.Put(testRun("fp-b", "ext2/walk", 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := populated.SetBaseline("fp-a", idA); err != nil {
		t.Fatal(err)
	}
	// Build a genuinely ambiguous reference: keep archiving distinct
	// runs until two content addresses share a first hex digit (at most
	// 17 runs by pigeonhole), then refer by that digit.
	firstDigit := map[byte]bool{idA[0]: true, idB[0]: true}
	ambiguous := ""
	if idA[0] == idB[0] {
		ambiguous = string(idA[0])
	}
	for i := 0; ambiguous == "" && i < 32; i++ {
		id, _, err := populated.Put(testRun("fp-x", "x/run", uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		if firstDigit[id[0]] {
			ambiguous = string(id[0])
		}
		firstDigit[id[0]] = true
	}
	if ambiguous == "" {
		t.Fatal("could not construct an ambiguous prefix")
	}

	empty := open(t)

	cases := []struct {
		name    string
		arch    *Archive
		ref     string
		wantErr string
	}{
		{"missing latest name", populated, "latest:no/such/scenario", "no recorded run named"},
		{"missing baseline name", populated, "baseline:ext2/walk", "no baseline named"},
		{"baseline on empty archive", empty, "baseline:ext2/grep", "no baseline named"},
		{"latest on empty archive", empty, "latest:ext2/grep", "no recorded run named"},
		{"unknown prefix", populated, "ffffff", "no run matches"},
		{"prefix on empty archive", empty, "abcdef", "no run matches"},
		{"empty ref", empty, "", "no run matches"},
		{"ambiguous prefix", populated, ambiguous, "ambiguous run prefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id, err := tc.arch.ResolveRef(tc.ref)
			if err == nil {
				t.Fatalf("ResolveRef(%q) resolved to %s, want error", tc.ref, id)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ResolveRef(%q) error %q does not mention %q", tc.ref, err, tc.wantErr)
			}
		})
	}

	// The happy forms still resolve against the same archive.
	for ref, want := range map[string]string{
		"latest:ext2/grep":   idA,
		"baseline:ext2/grep": idA,
		idB[:12]:             idB,
		idA:                  idA,
	} {
		got, err := populated.ResolveRef(ref)
		if err != nil || got != want {
			t.Errorf("ResolveRef(%q) = %q, %v; want %q", ref, got, err, want)
		}
	}
}

package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedArchive records three runs (one labeled, one blessed) into dir
// and returns the path and contents of the segment file that ends with
// the baseline line — the shard a crashed appender would have torn.
func seedArchive(t *testing.T) (dir, segPath string, segData []byte) {
	t.Helper()
	dir = t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Put(testRun("fp1", "ext2/grep", 100, 5000)); err != nil {
		t.Fatal(err)
	}
	labeled := testRun("fp2", "corpus/cell", 200, 300)
	labeled.Meta[LabelMetaKey] = "cell-label"
	if _, _, err := a.Put(labeled); err != nil {
		t.Fatal(err)
	}
	id, _, err := a.Put(testRun("fp3", "reiser/walk", 400))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetBaseline("fp3", id); err != nil {
		t.Fatal(err)
	}
	for _, p := range segmentFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "baseline fp3 ") {
			return dir, p, data
		}
	}
	t.Fatal("no segment holds the baseline line")
	return "", "", nil
}

// segmentFiles lists every segment file under dir's index.d.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(filepath.Join(dir, "index.d"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), "seg-") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// snapshotSegments captures every segment file's bytes so a test can
// restore the archive between corruption experiments.
func snapshotSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, p := range segmentFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = data
	}
	return out
}

func restoreSegments(t *testing.T, dir string, snap map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(filepath.Join(dir, "index.d")); err != nil {
		t.Fatal(err)
	}
	for p, data := range snap {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A crashed appender can leave a shard's active segment with a torn
// final line. The archive must open anyway — dropping at most that one
// line — at EVERY byte offset the tear could land on; Open truncates
// the tear away (self-heal), so the next Open comes back clean and
// appends keep working.
func TestLoadSurvivesTruncatedTrailingLine(t *testing.T) {
	dir, seg, data := seedArchive(t)
	pristine := snapshotSegments(t, dir)
	text := strings.TrimSuffix(string(data), "\n")
	lastStart := strings.LastIndex(text, "\n") + 1
	full := len(data)

	for cut := lastStart; cut < full; cut++ {
		restoreSegments(t, dir, pristine)
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d of %d: Open: %v", cut, full, err)
		}
		entries, err := a.List()
		if err != nil {
			t.Fatalf("cut at byte %d: List: %v", cut, err)
		}
		// Every complete line survives; the torn line is either dropped
		// or (when the tear lands on a field boundary) still parses.
		if len(entries) != 3 {
			t.Fatalf("cut at byte %d: %d entries survived, want all 3 runs", cut, len(entries))
		}
		for i, want := range []string{"ext2/grep", "corpus/cell", "reiser/walk"} {
			if entries[i].Name != want {
				t.Fatalf("cut at byte %d: entry %d = %q, want %q", cut, i, entries[i].Name, want)
			}
		}
		if entries[1].Label != "cell-label" {
			t.Errorf("cut at byte %d: labeled entry lost its label", cut)
		}

		// A mid-line tear must be noticed (warning set). A tear exactly
		// at the line start removes the line without a trace — that
		// segment is indistinguishable from one written before the
		// blessing, so no warning is possible there.
		warned := a.Warning() != ""
		if baselines, err := a.Baselines(); err != nil {
			t.Fatalf("cut at byte %d: Baselines: %v", cut, err)
		} else if _, ok := baselines["fp3"]; !ok && !warned && cut > lastStart {
			t.Errorf("cut at byte %d: baseline silently lost without a warning", cut)
		}

		// Open already truncated the tear: a fresh Open is clean.
		healed, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := healed.List(); err != nil || healed.Warning() != "" {
			t.Fatalf("cut at byte %d: healed archive: err=%v warning=%q", cut, err, healed.Warning())
		}
		// And the healed shard accepts appends again.
		if _, _, err := healed.Put(testRun("fp3", "reiser/walk", uint64(700+cut))); err != nil {
			t.Fatalf("cut at byte %d: Put after heal: %v", cut, err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d: post-append reopen: %v", cut, err)
		}
		if reopened.Warning() != "" {
			t.Fatalf("cut at byte %d: post-append reopen warning: %q", cut, reopened.Warning())
		}
	}
}

// The same tolerance must NOT extend to earlier lines: every line but
// the active segment's last was once followed by a validated append,
// so damage there is real corruption, not a torn write.
func TestLoadRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Same fingerprint: all four lines land in one shard's segment.
	var last string
	for i := 0; i < 3; i++ {
		last, _, err = a.Put(testRun("fpX", "ext2/grep", uint64(100*(i+1))))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetBaseline("fpX", last); err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, p := range segmentFiles(t, dir) {
		data, _ := os.ReadFile(p)
		if strings.Contains(string(data), "fpX") {
			seg = p
		}
	}
	if seg == "" {
		t.Fatal("fpX shard segment not found")
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 1; i < len(lines)-1; i++ { // skip header; last line is tolerated
		mangled := append([]string{}, lines...)
		mangled[i] = mangled[i][:len(mangled[i])/2]
		if err := os.WriteFile(seg, []byte(strings.Join(mangled, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("truncating line %d (%q) loaded silently", i+1, lines[i])
		}
	}
}

// An unreadable segment header still fails loudly: tail tolerance must
// not turn a wrong-format file into an empty shard.
func TestLoadRejectsBadSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Put(testRun("fp", "s", 100)); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), segmentHeader, "osprof-index-seg v99", 1)
	if err := os.WriteFile(segs[0], []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("unknown segment version loaded silently")
	}
}

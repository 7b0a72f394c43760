package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/runner"
)

// recordJSON runs `osprof record` with -json and parses the results.
func recordJSON(t *testing.T, archive string, ids ...string) []runner.RunResult {
	t.Helper()
	args := append([]string{"record", "-json", "-archive", archive}, ids...)
	code, out, errOut := exec(t, args...)
	if code != 0 {
		t.Fatalf("record exit=%d stderr=%s", code, errOut)
	}
	var results []runner.RunResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("record JSON: %v\n%s", err, out)
	}
	return results
}

// Recording the same Spec+seed twice must produce byte-identical
// archived runs: the content address (run ID) is the same and the
// second recording dedups (the acceptance criterion of the archive).
func TestRecordTwiceIsByteIdentical(t *testing.T) {
	archive := t.TempDir()
	first := recordJSON(t, archive, "ext2/readzero")
	second := recordJSON(t, archive, "ext2/readzero")
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("results: %d/%d", len(first), len(second))
	}
	if first[0].RunID == "" || first[0].RunID != second[0].RunID {
		t.Fatalf("run ids differ across identical recordings: %q vs %q",
			first[0].RunID, second[0].RunID)
	}
	if first[0].Dedup || !second[0].Dedup {
		t.Errorf("dedup flags: first=%v second=%v", first[0].Dedup, second[0].Dedup)
	}
	if first[0].Fingerprint == "" || first[0].Schema != runner.Schema {
		t.Errorf("result missing fingerprint/schema: %+v", first[0])
	}

	// Diffing the run against itself reports every operation unchanged.
	code, out, _ := exec(t, "diff", "-archive", archive, "-json",
		"latest:ext2/readzero", first[0].RunID)
	if code != 0 {
		t.Fatalf("self-diff exit=%d:\n%s", code, out)
	}
	var rep diff.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Changed != 0 || len(rep.Ops) == 0 {
		t.Errorf("self-diff: %+v", rep)
	}
	for _, op := range rep.Ops {
		if op.Verdict != diff.Unchanged {
			t.Errorf("%s: verdict %s on identical runs", op.Op, op.Verdict)
		}
	}
}

// The §5-style kernel-configuration comparison: two kernel builds
// (preemption on/off) must diff with the read operation flagged at a
// nonzero EMD — the preemptive kernel adds a latency peak near
// log2(quantum) where preempted requests wait out their quantum.
func TestDiffFlagsPreemptionConfigChange(t *testing.T) {
	archive := t.TempDir()
	recordJSON(t, archive, "fig3/nopreempt", "fig3/preempt")

	code, out, errOut := exec(t, "diff", "-archive", archive, "-json",
		"latest:fig3/nopreempt", "latest:fig3/preempt")
	if code != 1 {
		t.Fatalf("config-change diff exit=%d, want 1; stderr=%s\n%s", code, errOut, out)
	}
	var rep diff.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Changed == 0 {
		t.Fatalf("preemption change not flagged: %+v", rep)
	}
	var read *diff.OpDiff
	for i := range rep.Ops {
		if rep.Ops[i].Op == "read" {
			read = &rep.Ops[i]
		}
	}
	if read == nil {
		t.Fatal("read operation missing from the report")
	}
	if !read.Verdict.Changed() {
		t.Errorf("read verdict %s, want a change", read.Verdict)
	}
	if read.Score <= 0 {
		t.Errorf("read EMD = %v, want nonzero", read.Score)
	}
	if read.PeaksB <= read.PeaksA {
		t.Errorf("preemptive kernel should add a peak: %d -> %d",
			read.PeaksA, read.PeaksB)
	}
	if rep.FingerprintA == rep.FingerprintB || rep.FingerprintA == "" {
		t.Errorf("fingerprints must witness the config change: %q vs %q",
			rep.FingerprintA, rep.FingerprintB)
	}

	// Text mode renders the verdict table and side-by-side plots.
	code, out, _ = exec(t, "diff", "-archive", archive,
		"latest:fig3/nopreempt", "latest:fig3/preempt")
	if code != 1 {
		t.Errorf("text diff exit=%d, want 1", code)
	}
	for _, want := range []string{"VERDICT", "read", "   |   "} {
		if !strings.Contains(out, want) {
			t.Errorf("text diff missing %q:\n%s", want, out)
		}
	}
}

// baseline + gate: blessing a baseline and re-running the same
// deterministic scenario must report zero regressions (exit 0); a
// different seed is a different fingerprint, so the gate refuses to
// compare against a mismatched baseline.
func TestBaselineGate(t *testing.T) {
	archive := t.TempDir()
	code, out, errOut := exec(t, "baseline", "-archive", archive, "ext2/readzero")
	if code != 0 {
		t.Fatalf("baseline exit=%d stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "ext2/readzero") {
		t.Errorf("baseline output:\n%s", out)
	}

	code, out, errOut = exec(t, "baseline", "list", "-archive", archive)
	if code != 0 || !strings.Contains(out, "ext2/readzero") {
		t.Errorf("baseline list exit=%d:\n%s%s", code, out, errOut)
	}

	code, out, errOut = exec(t, "diff", "-archive", archive, "ext2/readzero")
	if code != 0 {
		t.Fatalf("gate exit=%d, want 0\nstdout:%s\nstderr:%s", code, out, errOut)
	}
	if !strings.Contains(out, "ok   ext2/readzero") ||
		!strings.Contains(out, "total: 0 changed") {
		t.Errorf("gate output:\n%s", out)
	}

	// JSON gate output is a MatrixReport.
	code, out, _ = exec(t, "diff", "-archive", archive, "-json", "ext2/readzero")
	if code != 0 {
		t.Fatalf("json gate exit=%d", code)
	}
	var m diff.MatrixReport
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatal(err)
	}
	if m.Changed != 0 || len(m.Pairs) != 1 || m.Pairs[0].Name != "ext2/readzero" {
		t.Errorf("json gate: %+v", m)
	}

	// A different seed produces a different fingerprint: no baseline.
	code, _, errOut = exec(t, "diff", "-archive", archive, "-seed", "9", "ext2/readzero")
	if code != 2 || !strings.Contains(errOut, "no baseline") {
		t.Errorf("mismatched-seed gate exit=%d stderr=%s, want 2 + diagnosis", code, errOut)
	}

	// The blessed baseline stays addressable by name even after the
	// scenario is re-recorded under a different seed (fingerprint):
	// the reference must resolve to the blessed run, not fail because
	// the latest run's fingerprint has no baseline.
	code, out, errOut = exec(t, "record", "-archive", archive, "-seed", "9", "ext2/readzero")
	if code != 0 {
		t.Fatalf("re-record exit=%d stderr=%s", code, errOut)
	}
	code, out, errOut = exec(t, "diff", "-archive", archive, "-json",
		"baseline:ext2/readzero", "latest:ext2/readzero")
	if code == 2 {
		t.Fatalf("baseline ref unresolvable after re-seed: stderr=%s", errOut)
	}
	var rep diff.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	// The A side must be the blessed seed-1 run (its fingerprint, not
	// the re-seeded latest one).
	if rep.FingerprintA != rep.FingerprintB {
		// readzero is seed-insensitive in behavior, but the envelopes
		// must still witness the two distinct configurations.
		if rep.FingerprintA == "" || rep.FingerprintB == "" {
			t.Errorf("fingerprints missing: %+v", rep)
		}
	} else {
		t.Errorf("baseline: resolved to the re-seeded run, not the blessed one: %+v", rep)
	}
}

// diff accepts file paths as run references.
func TestDiffFileReferences(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency uint64, n int) string {
		s := core.NewSet(name)
		for i := 0; i < n; i++ {
			s.Record("read", latency)
		}
		var buf bytes.Buffer
		if err := core.WriteRun(&buf, &core.Run{Set: s}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".run")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("before", 100, 1000)
	b := write("after", 100<<4, 1000) // shifted four buckets

	code, out, errOut := exec(t, "diff", "-archive", filepath.Join(dir, "arch"), a, b)
	if code != 1 {
		t.Fatalf("file diff exit=%d stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "shifted-peak") {
		t.Errorf("shifted peak not flagged:\n%s", out)
	}
}

func TestRecordListAndUnknown(t *testing.T) {
	code, out, _ := exec(t, "record", "list")
	if code != 0 {
		t.Fatalf("record list exit=%d", code)
	}
	for _, want := range []string{"ext2/grep", "cifs/readzero", "fig3/preempt", "fig3/nopreempt"} {
		if !strings.Contains(out, want) {
			t.Errorf("record list missing %q:\n%s", want, out)
		}
	}
	code, _, errOut := exec(t, "record", "-archive", t.TempDir(), "nope/nope")
	if code != 2 || !strings.Contains(errOut, "unknown scenario") {
		t.Errorf("unknown scenario exit=%d stderr=%s", code, errOut)
	}
}

// A stray file named like a scenario id (or "all") in the working
// directory must not hijack the documented gate commands into
// file-reference mode.
func TestDiffScenarioIdsBeatStrayFiles(t *testing.T) {
	archive := t.TempDir()
	dir := t.TempDir()
	for _, name := range []string{"all", "ext2-readzero"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	// With a ./all file present, `diff all` must still run the gate
	// (which fails with "no baseline", exit 2 + diagnosis — not the
	// "takes exactly two run references" usage error, and not an
	// attempt to parse ./all as a run envelope).
	code, _, errOut := exec(t, "diff", "-archive", archive, "all")
	if code != 2 || !strings.Contains(errOut, "no baseline") {
		t.Errorf("gate hijacked by stray file: exit=%d stderr=%s", code, errOut)
	}
}

func TestDiffUsageErrors(t *testing.T) {
	archive := t.TempDir()
	// A ref mixed into gate ids is a usage error.
	code, _, errOut := exec(t, "diff", "-archive", archive, "latest:ext2/grep", "ext2/grep", "deadbeef")
	if code != 2 {
		t.Errorf("mixed diff args exit=%d stderr=%s", code, errOut)
	}
	// Unknown reference.
	code, _, errOut = exec(t, "diff", "-archive", archive, "latest:ext2/grep", "latest:ext2/walk")
	if code != 2 || !strings.Contains(errOut, "no recorded run") {
		t.Errorf("unrecorded ref exit=%d stderr=%s", code, errOut)
	}
}

// A torn trailing index line (a crashed appender) is healed by Open;
// the CLI must say so on stderr rather than silently dropping the run.
func TestArchiveListReportsHealedTail(t *testing.T) {
	archive := t.TempDir()
	recordJSON(t, archive, "ext2/readzero")
	segs, err := filepath.Glob(filepath.Join(archive, "index.d", "shard-*", "seg-*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v err=%v, want exactly one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the closing quote of the run's name: the line no longer
	// parses.
	if err := os.WriteFile(segs[0], data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := exec(t, "archive", "list", "-archive", archive)
	if code != 0 || !strings.Contains(errOut, "dropped truncated trailing line") {
		t.Fatalf("archive list exit=%d stderr=%q, want exit 0 and the heal warning", code, errOut)
	}
	// The heal is durable: a second open is clean.
	if code, _, errOut = exec(t, "archive", "list", "-archive", archive); code != 0 || errOut != "" {
		t.Errorf("reopen exit=%d stderr=%q, want a clean open", code, errOut)
	}
}

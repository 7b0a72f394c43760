package diff

import (
	"encoding/json"
	"strings"
	"testing"

	"osprof/internal/core"
)

// mkSet builds a set with one dominant op from bucket->count pairs.
func mkSet(name, op string, buckets map[int]uint64) *core.Set {
	s := core.NewSet(name)
	p := s.Get(op)
	for b, c := range buckets {
		for i := uint64(0); i < c; i++ {
			p.Record(uint64(1) << b)
		}
	}
	return s
}

func TestIdenticalSetsUnchanged(t *testing.T) {
	mk := func() *core.Set {
		return mkSet("a", "read", map[int]uint64{6: 1000, 13: 50})
	}
	rep := New().Sets(mk(), mk())
	if rep.Changed != 0 || rep.Regression() {
		t.Fatalf("identical sets flagged: %+v", rep)
	}
	for _, op := range rep.Ops {
		if op.Verdict != Unchanged {
			t.Errorf("%s: verdict %s", op.Op, op.Verdict)
		}
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
}

func TestNewPeakVerdict(t *testing.T) {
	a := mkSet("a", "read", map[int]uint64{6: 100000})
	b := mkSet("b", "read", map[int]uint64{6: 100000, 20: 40})
	rep := New().Sets(a, b)
	op := rep.Ops[0]
	if op.Verdict != NewPeak {
		t.Fatalf("verdict %s, want new-peak (%+v)", op.Verdict, op)
	}
	if op.Score <= 0 {
		t.Errorf("new peak scored %v, want nonzero EMD", op.Score)
	}
	if op.PeaksA != 1 || op.PeaksB != 2 {
		t.Errorf("peaks %d->%d", op.PeaksA, op.PeaksB)
	}
	if rep.Changed != 1 {
		t.Errorf("changed=%d", rep.Changed)
	}
	// The reverse direction loses the peak.
	if v := New().Sets(b, a).Ops[0].Verdict; v != LostPeak {
		t.Errorf("reverse verdict %s, want lost-peak", v)
	}
}

func TestShiftedPeakVerdict(t *testing.T) {
	a := mkSet("a", "read", map[int]uint64{6: 1000})
	b := mkSet("b", "read", map[int]uint64{9: 1000})
	rep := New().Sets(a, b)
	op := rep.Ops[0]
	if op.Verdict != ShiftedPeak {
		t.Fatalf("verdict %s, want shifted-peak (%+v)", op.Verdict, op)
	}
	if len(op.ModeShifts) != 1 || op.ModeShifts[0] != 3 {
		t.Errorf("mode shifts %v, want [3]", op.ModeShifts)
	}
	if op.Score <= 0 {
		t.Errorf("shifted peak scored %v", op.Score)
	}
}

func TestNewAndMissingOpVerdicts(t *testing.T) {
	a := mkSet("a", "read", map[int]uint64{6: 1000})
	b := mkSet("b", "read", map[int]uint64{6: 1000})
	b.Get("llseek")
	for i := 0; i < 800; i++ {
		b.Lookup("llseek").Record(1 << 7)
	}
	rep := New().Sets(a, b)
	var llseek *OpDiff
	for i := range rep.Ops {
		if rep.Ops[i].Op == "llseek" {
			llseek = &rep.Ops[i]
		}
	}
	if llseek == nil || llseek.Verdict != NewOp {
		t.Fatalf("llseek verdict: %+v", llseek)
	}
	if llseek.Score != 1 {
		t.Errorf("one-sided EMD = %v, want 1", llseek.Score)
	}
	// Reverse: the op disappears.
	rep = New().Sets(b, a)
	for _, op := range rep.Ops {
		if op.Op == "llseek" && op.Verdict != MissingOp {
			t.Errorf("reverse verdict %s, want missing-op", op.Verdict)
		}
	}
}

// A tiny op present on one side only is still flagged even though the
// selector's phase 1 would skip it as a small share: disappearing
// operations are regressions regardless of their latency share.
func TestOneSidedSmallShareStillFlagged(t *testing.T) {
	a := mkSet("a", "read", map[int]uint64{6: 100000})
	b := mkSet("b", "read", map[int]uint64{6: 100000})
	a.Get("unlink").Record(1 << 6) // one call, ~0% share
	rep := New().Sets(a, b)
	found := false
	for _, op := range rep.Ops {
		if op.Op == "unlink" {
			found = true
			if op.Verdict != MissingOp {
				t.Errorf("unlink verdict %s, want missing-op", op.Verdict)
			}
		}
	}
	if !found {
		t.Fatal("unlink missing from the report")
	}
	// Ordering contract: the flagged one-sided op must sort into the
	// changed block at the top, not linger in the selector's trailing
	// skipped block where its pre-classification score placed it.
	if rep.Ops[0].Op != "unlink" || !rep.Ops[0].Verdict.Changed() {
		t.Errorf("changed one-sided op not ranked first: %+v", rep.Ops)
	}
}

func TestChangedOpsOrderedFirstBySeverity(t *testing.T) {
	a := mkSet("a", "read", map[int]uint64{6: 1000})
	a.Get("write")
	for i := 0; i < 900; i++ {
		a.Lookup("write").Record(1 << 6)
	}
	b := mkSet("b", "read", map[int]uint64{16: 1000}) // read shifted a lot
	b.Get("write")
	for i := 0; i < 900; i++ {
		b.Lookup("write").Record(1 << 6) // write unchanged
	}
	rep := New().Sets(a, b)
	if rep.Ops[0].Op != "read" || !rep.Ops[0].Verdict.Changed() {
		t.Errorf("most severe change not first: %+v", rep.Ops)
	}
	changed := rep.ChangedOps()
	if len(changed) != 1 || changed[0].Op != "read" {
		t.Errorf("ChangedOps = %+v", changed)
	}
}

func TestRunsCarryFingerprints(t *testing.T) {
	a := &core.Run{Fingerprint: "fpA", Set: mkSet("a", "read", map[int]uint64{6: 10})}
	b := &core.Run{Fingerprint: "fpB", Set: mkSet("b", "read", map[int]uint64{6: 10})}
	rep := New().Runs(a, b)
	if rep.FingerprintA != "fpA" || rep.FingerprintB != "fpB" {
		t.Errorf("fingerprints lost: %+v", rep)
	}
	if rep.NameA != "a" || rep.NameB != "b" {
		t.Errorf("names lost: %+v", rep)
	}
}

func TestMatrixMatchesByName(t *testing.T) {
	mk := func(name string, shift int) *core.Run {
		return &core.Run{Set: mkSet(name, "read", map[int]uint64{6 + shift: 1000})}
	}
	as := []*core.Run{mk("s1", 0), mk("s2", 0), mk("gone", 0)}
	bs := []*core.Run{mk("s1", 0), mk("s2", 4), mk("fresh", 0)}
	m := New().Matrix(as, bs)
	if len(m.Pairs) != 2 {
		t.Fatalf("pairs: %+v", m.Pairs)
	}
	if m.Pairs[0].Name != "s1" || m.Pairs[0].Changed != 0 {
		t.Errorf("s1: %+v", m.Pairs[0])
	}
	if m.Pairs[1].Name != "s2" || m.Pairs[1].Changed != 1 {
		t.Errorf("s2: %+v", m.Pairs[1])
	}
	if len(m.OnlyA) != 1 || m.OnlyA[0] != "gone" ||
		len(m.OnlyB) != 1 || m.OnlyB[0] != "fresh" {
		t.Errorf("unmatched: %v / %v", m.OnlyA, m.OnlyB)
	}
	// 1 changed op + 2 unmatched runs.
	if m.Changed != 3 || !m.Regression() {
		t.Errorf("Changed = %d, want 3", m.Changed)
	}
}

// The JSON shape is a published interface (Schema); pin the key names.
func TestReportJSONShape(t *testing.T) {
	a := mkSet("a", "read", map[int]uint64{6: 1000})
	b := mkSet("b", "read", map[int]uint64{9: 1000})
	data, err := json.Marshal(New().Sets(a, b))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "a", "b", "ops", "changed"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON missing key %q: %s", key, data)
		}
	}
	ops := m["ops"].([]any)
	op := ops[0].(map[string]any)
	for _, key := range []string{"op", "verdict", "score", "count_a", "count_b", "peaks_a", "peaks_b"} {
		if _, ok := op[key]; !ok {
			t.Errorf("op JSON missing key %q: %s", key, data)
		}
	}
}

// The layer attribution picks the highest-scoring flagged layer row and
// reads each side's dominant critical-path layer off the op@crit rows;
// an operation with critical-path rows but no layer rows yields no
// entry.
func TestLayerAttributionTracksCriticalPath(t *testing.T) {
	a, b := core.NewSet("a"), core.NewSet("b")
	for _, s := range []*core.Set{a, b} {
		fill(s, "read@fs", map[int]uint64{6: 1000})
		fill(s, "write@crit:fs", map[int]uint64{7: 10})
	}
	fill(a, "read@disk", map[int]uint64{10: 100})
	fill(b, "read@disk", map[int]uint64{14: 1000})
	fill(a, "read@crit:fs", map[int]uint64{8: 900})
	fill(b, "read@crit:fs", map[int]uint64{8: 100})
	fill(a, "read@crit:disk", map[int]uint64{12: 10})
	fill(b, "read@crit:disk", map[int]uint64{15: 900})

	rep := New().Sets(a, b)
	if len(rep.Layers) != 1 {
		t.Fatalf("layers = %+v, want one entry", rep.Layers)
	}
	mv := rep.Layers[0]
	if mv.Op != "read" || mv.Layer != "disk" || !mv.Verdict.Changed() {
		t.Fatalf("attribution = %+v, want read moved in disk", mv)
	}
	if mv.CritA != "fs" || mv.CritB != "disk" {
		t.Errorf("critical path %q -> %q, want fs -> disk", mv.CritA, mv.CritB)
	}
	if !strings.Contains(mv.Detail, "critical path moved fs -> disk") {
		t.Errorf("detail %q misses the critical-path move", mv.Detail)
	}
}

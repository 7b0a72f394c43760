package load

import (
	"testing"

	"osprof/internal/core"
)

// Every band profile a handle creates is named so core.SplitOp reads
// back the handle's operation and the band's name.
func TestOpNameSplitOpRoundTrip(t *testing.T) {
	set := core.NewSet("t")
	h := NewRecorder(set).Handle("read")
	for b := 0; b < core.LoadBands; b++ {
		h.Record(b, 100)
	}
	if got := len(set.Ops()); got != core.LoadBands {
		t.Fatalf("handle created %d profiles, want %d", got, core.LoadBands)
	}
	for b, name := range set.Ops() {
		base, dim, band := core.SplitOp(name)
		if base != "read" || dim != core.DimLoad || band != core.DimLoad.Values()[b] {
			t.Errorf("SplitOp(%q) = %q, %d, %q", name, base, dim, band)
		}
	}
}

func TestSplitOpRejectsNonLoadOps(t *testing.T) {
	for _, op := range []string{
		"read",           // plain op
		"read@vfs",       // layer-derived op
		"read@crit:vfs",  // critical-path op
		"read@load:",     // empty band
		"read@load:vfs",  // not a band name
		"read@load:0",    // not a band name
		"read@load:1@x",  // suffix must be last
		"read@load:2-4 ", // trailing junk
	} {
		if base, dim, band := core.SplitOp(op); dim == core.DimLoad {
			t.Errorf("SplitOp(%q) accepted: base=%q band=%q", op, base, band)
		}
	}
	// Only the LAST @load: marker counts, so a pathological base
	// containing the marker still round-trips.
	base, dim, band := core.SplitOp("read@load:1@load:5+")
	if dim != core.DimLoad || base != "read@load:1" || band != "5+" {
		t.Errorf("nested marker: base=%q band=%q dim=%d", base, band, dim)
	}
}

func TestBandIndex(t *testing.T) {
	for b, name := range core.DimLoad.Values() {
		if got := core.DimLoad.Index(name); got != b {
			t.Errorf("DimLoad.Index(%q) = %d, want %d", name, got, b)
		}
	}
	for _, bad := range []string{"", "0", "2", "vfs", "5"} {
		if got := core.DimLoad.Index(bad); got != -1 {
			t.Errorf("DimLoad.Index(%q) = %d, want -1", bad, got)
		}
	}
}

func TestRecorderRecordsIntoBandProfiles(t *testing.T) {
	set := core.NewSet("t")
	r := NewRecorder(set)
	read, write := r.Handle("read"), r.Handle("write")
	read.Record(0, 100)
	read.Record(0, 200)
	read.Record(2, 50_000)
	write.Record(1, 900)

	if p := set.Lookup("read@load:1"); p == nil || p.Count != 2 {
		t.Errorf("read@load:1 = %+v", p)
	}
	if p := set.Lookup("read@load:5+"); p == nil || p.Count != 1 {
		t.Errorf("read@load:5+ = %+v", p)
	}
	if p := set.Lookup("write@load:2-4"); p == nil || p.Count != 1 {
		t.Errorf("write@load:2-4 = %+v", p)
	}
	if p := set.Lookup("read@load:2-4"); p != nil {
		t.Errorf("unrecorded band materialized: %+v", p)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Handle("read").Record(0, 100) // must not panic
}

// TestHandleRecordAllocationFree pins the pre-bound path the probes
// actually use: once resolved, a Handle must record without hashing
// the op name or allocating. CI gates on this test.
func TestHandleRecordAllocationFree(t *testing.T) {
	set := core.NewSet("t")
	r := NewRecorder(set)
	h := r.Handle("read")
	for b := 0; b < core.LoadBands; b++ {
		h.Record(b, 100) // warm the band profiles
	}
	avg := testing.AllocsPerRun(1000, func() {
		h.Record(0, 100)
		h.Record(1, 2_000)
		h.Record(2, 50_000)
	})
	if avg != 0 {
		t.Errorf("Handle.Record allocates %.1f times per op triple, want 0", avg)
	}
}

// Two handles of one operation share the same band profiles, and a
// nil recorder hands out a nil, inert handle.
func TestHandleSharesProfiles(t *testing.T) {
	set := core.NewSet("t")
	r := NewRecorder(set)
	r.Handle("read").Record(1, 100)
	h := r.Handle("read")
	h.Record(1, 200)
	if got := set.Get("read@load:2-4").Count; got != 2 {
		t.Errorf("band profile count = %d, want 2 (handle split the op)", got)
	}
	var nilR *Recorder
	if nh := nilR.Handle("read"); nh != nil {
		t.Errorf("nil recorder handle = %v, want nil", nh)
	}
	var nilH *Handle
	nilH.Record(0, 100) // must not panic
}

func TestWeights(t *testing.T) {
	// Band 0 holds 90% of the occupancy but only 50% of the samples:
	// its weight must exceed 1; band 2 (10% occ, 50% samples) must be
	// under-weighted symmetrically.
	occ := [core.LoadBands]uint64{900, 0, 100}
	counts := [core.LoadBands]uint64{500, 0, 500}
	w := Weights(occ, counts)
	if w[0] != 1.8 {
		t.Errorf("w[0] = %v, want 1.8", w[0])
	}
	if w[1] != 0 {
		t.Errorf("w[1] = %v, want 0 (no samples)", w[1])
	}
	if w[2] != 0.2 {
		t.Errorf("w[2] = %v, want 0.2", w[2])
	}

	// Degenerate inputs produce zeros, not NaN.
	for _, c := range []struct{ occ, cnt [core.LoadBands]uint64 }{
		{[core.LoadBands]uint64{}, counts},
		{occ, [core.LoadBands]uint64{}},
	} {
		for b, v := range Weights(c.occ, c.cnt) {
			if v != 0 {
				t.Errorf("degenerate Weights band %d = %v, want 0", b, v)
			}
		}
	}
}

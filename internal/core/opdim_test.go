package core

import "testing"

// TestDimRegistry pins the derived op-name grammar: every split, every
// rejection, the round trip through Dim.Op, and Dim.Index.
func TestDimRegistry(t *testing.T) {
	cases := []struct {
		op, base string
		dim      Dim
		value    string
	}{
		{"read", "read", DimNone, ""},
		{"read@fs", "read", DimLayer, "fs"},
		{"disk_read@driver", "disk_read", DimLayer, "driver"},
		{"a@b@net", "a@b", DimLayer, "net"}, // last marker wins
		{"read@crit:disk", "read", DimCrit, "disk"},
		{"read@load:2-4", "read", DimLoad, "2-4"},
		{"read@load:1@load:5+", "read@load:1", DimLoad, "5+"}, // last marker wins

		// A bare value splits only when it names a layer.
		{"read@bogus", "read@bogus", DimNone, ""},
		{"read@x", "read@x", DimNone, ""},
		{"read@", "read@", DimNone, ""},

		// The critical path accepts any value, known layer or not.
		{"read@crit:anything", "read", DimCrit, "anything"},
		{"read@crit:", "read", DimCrit, ""},
		{"read@crit:5+", "read", DimCrit, "5+"},

		// A load value splits only when it names a band.
		{"read@load:", "read@load:", DimNone, ""},
		{"read@load:x", "read@load:x", DimNone, ""},
		{"read@load:0", "read@load:0", DimNone, ""},
		{"read@load:1@x", "read@load:1@x", DimNone, ""}, // the band must come last
		{"read@load:2-4 ", "read@load:2-4 ", DimNone, ""},
		{"@load:1", "", DimLoad, "1"}, // an empty base still splits

		// Each dimension rejects the other dimensions' values.
		{"read@load:vfs", "read@load:vfs", DimNone, ""},
		{"read@load:crit:fs", "read@load:crit:fs", DimNone, ""},
		{"read@2-4", "read@2-4", DimNone, ""},
		{"read@5+", "read@5+", DimNone, ""},
		{"read@load", "read@load", DimNone, ""},
		{"read@crit", "read@crit", DimNone, ""},
	}
	for _, c := range cases {
		base, dim, value := SplitOp(c.op)
		if base != c.base || dim != c.dim || value != c.value {
			t.Errorf("SplitOp(%q) = %q %d %q, want %q %d %q",
				c.op, base, dim, value, c.base, c.dim, c.value)
		}
	}

	for _, dim := range []Dim{DimLayer, DimCrit, DimLoad} {
		for i, v := range dim.Values() {
			op := dim.Op("read", v)
			if base, d, value := SplitOp(op); base != "read" || d != dim || value != v {
				t.Errorf("SplitOp(%q) = %q %d %q, want read %d %q", op, base, d, value, dim, v)
			}
			if got := dim.Index(v); got != i {
				t.Errorf("dim %d: Index(%q) = %d, want %d", dim, v, got, i)
			}
		}
	}
	if got := DimLayer.Values(); len(got) != 6 || got[0] != "vfs" || got[5] != "net" {
		t.Errorf("layer values = %v", got)
	}
	if got := DimLoad.Values(); len(got) != LoadBands || got[0] != "1" || got[2] != "5+" {
		t.Errorf("load band values = %v", got)
	}
	for _, bad := range []string{"", "0", "2", "vfs", "5"} {
		if got := DimLoad.Index(bad); got != -1 {
			t.Errorf("DimLoad.Index(%q) = %d, want -1", bad, got)
		}
	}
	if got := DimLayer.Index("2-4"); got != -1 {
		t.Errorf("DimLayer.Index(2-4) = %d, want -1", got)
	}
}

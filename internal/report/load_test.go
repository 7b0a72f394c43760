package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"osprof/internal/core"
)

// loadSet builds a conditioned set: read in bands 1 and 5+, write in
// band 2-4, plus a base op the doc must ignore.
func loadSet() *core.Set {
	s := core.NewSet("t")
	rec := func(op string, lat uint64, n int) {
		p := s.Get(op)
		for i := 0; i < n; i++ {
			p.Record(lat)
		}
	}
	rec("read", 1<<6, 300) // base op: not part of the decomposition
	rec("read@load:1", 1<<6, 200)
	rec("read@load:5+", 1<<12, 100)
	rec("write@load:2-4", 1<<8, 50)
	return s
}

func TestLoadOfGroupsAndSorts(t *testing.T) {
	doc := LoadOf(loadSet())
	if doc.Schema != LoadSchema || doc.Set != "t" {
		t.Fatalf("doc header: %+v", doc)
	}
	if len(doc.Ops) != 2 || doc.Ops[0].Op != "read" || doc.Ops[1].Op != "write" {
		t.Fatalf("ops: %+v", doc.Ops)
	}
	read := doc.Ops[0]
	if len(read.Bands) != 2 || read.Bands[0].Band != "1" || read.Bands[1].Band != "5+" {
		t.Fatalf("read bands out of order: %+v", read.Bands)
	}
	if read.Bands[0].Count != 200 || read.Bands[1].Count != 100 {
		t.Errorf("band counts: %+v", read.Bands)
	}
	var share float64
	for _, e := range read.Bands {
		share += e.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("read band shares sum to %v", share)
	}
	if read.Bands[1].Mean != 1<<12 {
		t.Errorf("band mean = %d", read.Bands[1].Mean)
	}
}

func TestLoadOfEmptyForUnconditionedSet(t *testing.T) {
	s := core.NewSet("plain")
	s.Record("read", 100)
	doc := LoadOf(s)
	if len(doc.Ops) != 0 {
		t.Fatalf("unconditioned set produced ops: %+v", doc.Ops)
	}
	var buf bytes.Buffer
	if n := Load(&buf, doc); n != 0 {
		t.Errorf("rendered %d ops", n)
	}
	if !strings.Contains(buf.String(), "no load profiles") {
		t.Errorf("missing empty notice: %q", buf.String())
	}
}

func TestLoadApplyRealtimeWeights(t *testing.T) {
	doc := LoadOf(loadSet())
	// The machine spent 90% of its cycles in band 1 and 10% in 5+, but
	// read sampled them 200/100: band 1 is underrepresented and must be
	// up-weighted.
	occ := [core.LoadBands]uint64{900, 0, 100}
	LoadApplyRealtime(doc, occ)
	if !doc.Realtime || len(doc.Occupancy) != core.LoadBands {
		t.Fatalf("realtime header: %+v", doc)
	}
	if doc.Occupancy[0].Share != 0.9 || doc.Occupancy[2].Share != 0.1 {
		t.Errorf("occupancy shares: %+v", doc.Occupancy)
	}
	read := doc.Ops[0]
	// w1 = (900/1000)/(200/300) = 1.35; w5 = (100/1000)/(100/300) = 0.3
	if math.Abs(read.Bands[0].Weight-1.35) > 1e-9 {
		t.Errorf("w[1] = %v, want 1.35", read.Bands[0].Weight)
	}
	if math.Abs(read.Bands[1].Weight-0.3) > 1e-9 {
		t.Errorf("w[5+] = %v, want 0.3", read.Bands[1].Weight)
	}
	var wshare float64
	for _, e := range read.Bands {
		wshare += e.WeightedShare
	}
	if math.Abs(wshare-1) > 1e-9 {
		t.Errorf("weighted shares sum to %v", wshare)
	}
	// Re-weighting must shrink the contended band's share: it was
	// sampled often relative to how rarely the machine was that loaded.
	if read.Bands[1].WeightedShare >= read.Bands[1].Share {
		t.Errorf("load:5+ share %v did not shrink under realtime (%v)",
			read.Bands[1].Share, read.Bands[1].WeightedShare)
	}
}

func TestLoadRenderTables(t *testing.T) {
	doc := LoadOf(loadSet())
	var buf bytes.Buffer
	if n := Load(&buf, doc); n != 2 {
		t.Fatalf("rendered %d ops, want 2", n)
	}
	out := buf.String()
	for _, want := range []string{"read", "write", "2-4", "5+", "SHARE"} {
		if !strings.Contains(out, want) {
			t.Errorf("plain table misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "RTSHARE") {
		t.Error("plain table shows realtime columns")
	}

	LoadApplyRealtime(doc, [core.LoadBands]uint64{900, 50, 50})
	buf.Reset()
	Load(&buf, doc)
	out = buf.String()
	for _, want := range []string{"occupancy:", "WEIGHT", "RTSHARE"} {
		if !strings.Contains(out, want) {
			t.Errorf("realtime table misses %q:\n%s", want, out)
		}
	}
}

package scenario

import (
	"reflect"
	"strings"
	"testing"

	"osprof/internal/core"
	"osprof/internal/sim"
	"osprof/internal/vfs"
)

// TestSkewMigrationNoUnderflow is the regression test for the
// cross-CPU TSC underflow: two CPUs with opposing skews, a contended
// preemptive schedule migrating readers between them, so operations
// routinely start on one clock and finish on the other. The custom
// reader proves the hazard is actually exercised (raw end < start at
// least once); the probe's profiles must stay clamp-sane — before the
// fix the wrapped ~2^64 latencies landed in the top bucket.
func TestSkewMigrationNoUnderflow(t *testing.T) {
	underflows := 0
	st, err := RunSpec(Spec{
		Name:    "t",
		Backend: Ext2,
		Kernel: sim.Config{
			NumCPUs:       2,
			ContextSwitch: 100,
			TickPeriod:    1 << 9,
			TickCost:      50,
			Quantum:       1 << 10,
			Preemptive:    true,
			WakePreempt:   true,
			TSCSkew:       []int64{5_000_000, -5_000_000},
			Seed:          3,
		},
		CachePages: 256,
		Files:      []FileSpec{{Name: "zero", Size: vfs.PageSize}},
		Instrument: Instrument{Point: FSLevel},
		Workloads: []Workload{{
			Kind:  Custom,
			Procs: 3,
			Body: func(p *sim.Proc, _ int, st *Stack) {
				f, err := st.Sys.Open(p, "/zero", false)
				if err != nil {
					return
				}
				for j := 0; j < 2_000; j++ {
					start := p.ReadTSC()
					st.Sys.Llseek(p, f, 0, vfs.SeekSet)
					st.Sys.Read(p, f, vfs.PageSize)
					if p.ReadTSC() < start {
						underflows++
					}
				}
				st.Sys.Close(p, f)
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if underflows == 0 {
		t.Fatal("no cross-CPU TSC underflow occurred; the regression is not exercised")
	}
	if err := st.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, op := range st.Set.Ops() {
		p := st.Set.Lookup(op)
		if p.Count == 0 {
			continue
		}
		// A wrapped subtraction lands near 2^64; every honest latency in
		// this world is far below 2^40 cycles.
		if p.Max >= 1<<40 {
			t.Errorf("%s: max latency %d smells of unsigned wrap", op, p.Max)
		}
	}
	if rd := st.Set.Lookup("read"); rd == nil || rd.Count == 0 {
		t.Error("probe recorded no reads")
	}
}

// TestLoadProfileRecordsBandedCompanions runs the first two load cells
// and checks the tentpole wiring end to end: a lone reader's samples
// land in the load:1 companion, four readers on two CPUs land in
// load:2-4, and neither cell leaks into bands it never reached.
func TestLoadProfileRecordsBandedCompanions(t *testing.T) {
	cells := LoadCells(1)

	solo, err := RunSpec(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if p := solo.Set.Lookup("read@load:1"); p == nil || p.Count == 0 {
		t.Error("solo cell missing read@load:1 samples")
	}
	for _, op := range []string{"read@load:2-4", "read@load:5+"} {
		if p := solo.Set.Lookup(op); p != nil && p.Count > 0 {
			t.Errorf("solo cell recorded %s (%d samples)", op, p.Count)
		}
	}

	packed, err := RunSpec(cells[1])
	if err != nil {
		t.Fatal(err)
	}
	hot := packed.Set.Lookup("read@load:2-4")
	if hot == nil || hot.Count == 0 {
		t.Fatal("contended cell missing read@load:2-4 samples")
	}
	// The steady state is 4 runnable readers; band 2-4 must dominate.
	if cold := packed.Set.Lookup("read@load:1"); cold != nil && cold.Count > hot.Count {
		t.Errorf("contended cell sampled load:1 (%d) more than load:2-4 (%d)",
			cold.Count, hot.Count)
	}
	// The companions account for exactly the probe's base samples.
	var banded uint64
	for _, op := range packed.Set.Ops() {
		if base, dim, _ := core.SplitOp(op); dim == core.DimLoad && base == "read" {
			banded += packed.Set.Lookup(op).Count
		}
	}
	if base := packed.Set.Lookup("read"); base == nil || banded != base.Count {
		t.Errorf("banded read samples = %d, want base count %v", banded, base)
	}
	if packed.Loads == nil || !packed.K.LoadTracked() {
		t.Error("stack did not retain the load recorder / tracking")
	}
}

// TestLoadProfileIsPureObserver pins the compatibility guarantee: the
// same spec with LoadProfile toggled must produce byte-identical
// profiles for every non-load operation — conditioning adds companion
// profiles without disturbing the world.
func TestLoadProfileIsPureObserver(t *testing.T) {
	spec := LoadCells(1)[1]
	on, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.LoadProfile = false
	off, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if onT, offT := on.K.Now(), off.K.Now(); onT != offT {
		t.Fatalf("clocks diverged: on=%d off=%d", onT, offT)
	}
	for _, op := range off.Set.Ops() {
		a, b := off.Set.Lookup(op), on.Set.Lookup(op)
		if b == nil {
			t.Errorf("conditioned run lost op %s", op)
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: profile disturbed by load conditioning:\n  off %+v\n  on  %+v", op, a, b)
		}
	}
	for _, op := range on.Set.Ops() {
		if _, dim, _ := core.SplitOp(op); dim != core.DimLoad && off.Set.Lookup(op) == nil {
			t.Errorf("conditioned run grew non-load op %s", op)
		}
	}
}

// LoadProfile needs a probe (or the tracer) to sample from.
func TestLoadProfileRequiresProbe(t *testing.T) {
	_, err := Build(Spec{
		Name:        "bare",
		Backend:     Ext2,
		Files:       []FileSpec{{Name: "zero", Size: vfs.PageSize}},
		LoadProfile: true,
	})
	if err == nil || !strings.Contains(err.Error(), "load profiling") {
		t.Errorf("bare LoadProfile spec built: %v", err)
	}
}

// The load cells are a stable registry: names, shape, and conditioning.
func TestLoadCellsShape(t *testing.T) {
	specs := LoadCells(0)
	ids := LoadCellIDs()
	if len(specs) != len(ids) {
		t.Fatalf("%d specs, %d ids", len(specs), len(ids))
	}
	for i, s := range specs {
		if s.Name != ids[i] {
			t.Errorf("cell %d: name %q vs id %q", i, s.Name, ids[i])
		}
		if !s.LoadProfile {
			t.Errorf("%s: load cell without LoadProfile", s.Name)
		}
		if !strings.Contains(s.Canonical(), "loadprofile=true") {
			t.Errorf("%s: canonical encoding misses the conditioning", s.Name)
		}
		if s.Kernel.NumCPUs < 2 {
			t.Errorf("%s: load cells are SMP scenarios, got %d CPUs", s.Name, s.Kernel.NumCPUs)
		}
	}
	if specs[0].Workloads[0].Procs >= specs[1].Workloads[0].Procs {
		t.Error("cells must increase contention")
	}
}

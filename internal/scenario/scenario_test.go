package scenario

import (
	"bytes"
	"runtime"
	"testing"

	"osprof/internal/core"
	"osprof/internal/sim"
	"osprof/internal/vfs"
	"osprof/internal/workload"
)

// kernel1 is the minimal machine used across tests.
func kernel1(seed int64) sim.Config {
	return sim.Config{NumCPUs: 1, ContextSwitch: 9_350, WakePreempt: true, Seed: seed}
}

func TestBuildExt2StackWiring(t *testing.T) {
	st, err := Build(Spec{
		Name:       "t",
		Kernel:     kernel1(1),
		Backend:    Ext2,
		CachePages: 512,
		Files:      []FileSpec{{Name: "f", Size: 2 * vfs.PageSize}},
		Tree:       &workload.TreeSpec{Seed: 3, Dirs: 4},
		Instrument: Instrument{Point: FSLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ext2 == nil || st.FS != vfs.FileSystem(st.Ext2) || st.VFS == nil || st.Sys == nil {
		t.Fatal("ext2 stack not wired")
	}
	if st.Instrumented == nil || st.Set == nil {
		t.Fatal("FS-level instrumentation missing")
	}
	if st.Tree.Dirs == 0 || st.Tree.Files == 0 {
		t.Errorf("tree not built: %+v", st.Tree)
	}
}

func TestRunRecordsProfiles(t *testing.T) {
	st, err := RunSpec(Spec{
		Name:       "t",
		Kernel:     kernel1(2),
		Backend:    Ext2,
		CachePages: 512,
		Tree:       &workload.TreeSpec{Seed: 3, Dirs: 4},
		Instrument: Instrument{Point: FSLevel},
		Workloads:  []Workload{{Kind: Grep}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.K.Now() == 0 {
		t.Error("simulation did not advance")
	}
	if st.Set.TotalOps() == 0 {
		t.Error("no operations recorded")
	}
	if st.Set.Lookup("readdir") == nil {
		t.Error("readdir profile missing")
	}
}

func TestUserLevelInstrumentationWrapsSyscalls(t *testing.T) {
	st, err := RunSpec(Spec{
		Name:       "t",
		Kernel:     kernel1(3),
		Backend:    Ext2,
		Files:      []FileSpec{{Name: "zero", Size: vfs.PageSize}},
		Instrument: Instrument{Point: UserLevel},
		Workloads:  []Workload{{Kind: ReadZero, Amount: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sys == vfs.Syscalls(st.VFS) {
		t.Error("user-level point left Sys unwrapped")
	}
	// The user profiler observes whole system calls: open/read/close.
	for _, op := range []string{"open", "read", "close"} {
		if st.Set.Lookup(op) == nil {
			t.Errorf("user-level profile missing %q", op)
		}
	}
}

func TestDriverLevelInstrumentation(t *testing.T) {
	st, err := RunSpec(Spec{
		Name:       "t",
		Kernel:     kernel1(4),
		Backend:    Ext2,
		CachePages: 64,
		Files:      []FileSpec{{Name: "big", Size: 256 * vfs.PageSize}},
		Instrument: Instrument{Point: DriverLevel},
		Workloads: []Workload{{
			Kind: Custom,
			Body: func(p *sim.Proc, _ int, st *Stack) {
				f, err := st.Sys.Open(p, "/big", false)
				if err != nil {
					return
				}
				for st.Sys.Read(p, f, vfs.PageSize) > 0 {
				}
				st.Sys.Close(p, f)
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof := st.Set.Lookup("disk_read"); prof == nil || prof.Count == 0 {
		t.Error("driver-level profiler captured no disk reads")
	}
}

func reiserSpec() Spec {
	return Spec{
		Name:       "t",
		Kernel:     kernel1(5),
		Backend:    Reiser,
		Files:      []FileSpec{{Name: "a", Size: 4 * vfs.PageSize}},
		Instrument: Instrument{Point: FSLevel},
		Workloads:  []Workload{{Kind: Grep, Path: "/"}},
	}
}

func cifsSpec() Spec {
	return Spec{
		Name:       "t",
		Kernel:     sim.Config{NumCPUs: 2, ContextSwitch: 9_350, WakePreempt: true, Seed: 6},
		Backend:    CIFS,
		CachePages: 1 << 12,
		Tree:       &workload.TreeSpec{Seed: 7, Dirs: 4},
		Instrument: Instrument{Point: FSLevel},
		Workloads:  []Workload{{Kind: Grep}},
	}
}

func TestReiserBackend(t *testing.T) {
	st, err := RunSpec(reiserSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.Reiser == nil {
		t.Fatal("reiser backend not built")
	}
	if prof := st.Set.Lookup("read"); prof == nil || prof.Count == 0 {
		t.Error("no reads recorded on reiser")
	}
}

func TestCIFSBackend(t *testing.T) {
	st, err := RunSpec(cifsSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.Client == nil || st.Server == nil || st.ServerFS == nil {
		t.Fatal("cifs testbed not wired")
	}
	// The client's wire operations record into the same sink.
	if prof := st.Set.Lookup("FindFirst"); prof == nil || prof.Count == 0 {
		t.Error("RPC profiles not captured")
	}
}

// TestRunReclaimsDaemonCoroutines checks that a finished world leaves
// no parked process behind: reiser's kupdate and the cifs server's
// cifsd never return, and Run must unwind them so the world can be
// collected.
func TestRunReclaimsDaemonCoroutines(t *testing.T) {
	reiser := reiserSpec()
	reiser.SuperDaemon = true
	for _, spec := range []Spec{reiser, cifsSpec()} {
		// Goroutines other tests left exiting can only lower the count,
		// so a leak shows as a count above the baseline.
		base := runtime.NumGoroutine()
		st, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n <= base {
			t.Fatalf("%v: goroutines after Build = %d, want more than %d (one per process)", spec.Backend, n, base)
		}
		st.Run()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%v: goroutines after Run = %d, want at most %d", spec.Backend, n, base)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Name: "files-need-fs", Files: []FileSpec{{Name: "x", Size: 1}}},
		{Name: "reiser-flat", Backend: Reiser, Tree: &workload.TreeSpec{}},
		{Name: "flusher-ext2", Backend: Reiser, Flusher: &FlusherSpec{}},
		{Name: "fs-instrument", Instrument: Instrument{Point: FSLevel}},
		{Name: "daemon-reiser", Backend: Ext2, SuperDaemon: true},
		{Name: "bad-backend", Backend: Backend(99)},
	}
	for _, spec := range cases {
		if _, err := Build(spec); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", spec.Name)
		}
	}
}

// Two stacks built from one spec are isolated deterministic worlds:
// their profiles must be byte-identical, which is the property the
// parallel runner relies on.
func TestIdenticalSpecsReproduceExactly(t *testing.T) {
	for _, spec := range Matrix(11) {
		a, err := RunSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, err := RunSpec(spec)
		if err != nil {
			t.Fatalf("%s rerun: %v", spec.Name, err)
		}
		if a.K.Now() != b.K.Now() {
			t.Errorf("%s: clocks differ: %d vs %d", spec.Name, a.K.Now(), b.K.Now())
		}
		var ba, bb bytes.Buffer
		if err := core.WriteSet(&ba, a.Set); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteSet(&bb, b.Set); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Errorf("%s: profiles differ between identical runs", spec.Name)
		}
	}
}

func TestMatrixCoversBackendsAndWorkloads(t *testing.T) {
	specs := Matrix(0)
	byBackend := map[Backend]map[Kind]bool{}
	for _, s := range specs {
		if len(s.Workloads) != 1 {
			t.Errorf("%s: matrix cells carry one workload, got %d", s.Name, len(s.Workloads))
			continue
		}
		if byBackend[s.Backend] == nil {
			byBackend[s.Backend] = map[Kind]bool{}
		}
		byBackend[s.Backend][s.Workloads[0].Kind] = true
	}
	for _, b := range []Backend{Ext2, Reiser, CIFS} {
		if len(byBackend[b]) < 4 {
			t.Errorf("%s covers %d workloads, want >= 4", b, len(byBackend[b]))
		}
	}
	if !byBackend[Ext2][Postmark] {
		t.Error("ext2 matrix misses postmark")
	}
	if len(MatrixIDs()) != len(specs) {
		t.Error("MatrixIDs out of sync with Matrix")
	}
}

// Different seeds must produce different worlds — the -seed flag is
// not a no-op.
func TestSeedChangesTheWorld(t *testing.T) {
	spec1 := Matrix(1)[0]
	spec2 := Matrix(2)[0]
	a, err := RunSpec(spec1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(spec2)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := core.WriteSet(&ba, a.Set); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteSet(&bb, b.Set); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("different seeds produced identical profiles")
	}
}

func TestCloneKindNeedsNoFS(t *testing.T) {
	var prof *core.Profile
	st, err := RunSpec(Spec{
		Name:   "t",
		Kernel: sim.Config{NumCPUs: 2, ContextSwitch: 9_350, WakePreempt: true, Seed: 8},
		Workloads: []Workload{{
			Kind:    Clone,
			Procs:   2,
			Amount:  200,
			Collect: func(stats any) { prof = stats.(*core.Profile) },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FS != nil || st.VFS != nil {
		t.Error("NoFS backend built a file system")
	}
	if prof == nil || prof.Count != 400 {
		t.Errorf("clone profile incomplete: %+v", prof)
	}
}

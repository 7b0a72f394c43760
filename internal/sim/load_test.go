package sim

import (
	"testing"

	"osprof/internal/core"
)

func TestLoadBandEdges(t *testing.T) {
	cases := []struct {
		load int
		band int
		name string
	}{
		{0, 0, "1"},
		{1, 0, "1"},
		{2, 1, "2-4"},
		{4, 1, "2-4"},
		{5, 2, "5+"},
		{100, 2, "5+"},
	}
	for _, c := range cases {
		if got := LoadBand(c.load); got != c.band {
			t.Errorf("LoadBand(%d) = %d, want %d", c.load, got, c.band)
		}
		if got := core.DimLoad.Values()[LoadBand(c.load)]; got != c.name {
			t.Errorf("band name of load %d = %q, want %q", c.load, got, c.name)
		}
	}
}

func TestReadTSCClampsNegativeSkew(t *testing.T) {
	// A large negative skew can exceed the clock early in the run; the
	// raw sum would wrap to ~2^64. ReadTSC must clamp at zero.
	cases := []struct {
		skew int64
		want func(now uint64, skew int64) uint64
	}{
		{-1_000_000, func(uint64, int64) uint64 { return 0 }},
		{-1, func(now uint64, _ int64) uint64 { return now - 1 }},
		{0, func(now uint64, _ int64) uint64 { return now }},
		{37, func(now uint64, _ int64) uint64 { return now + 37 }},
	}
	for _, c := range cases {
		k := New(Config{NumCPUs: 1, ContextSwitch: 10, TSCSkew: []int64{c.skew}})
		var got, want uint64
		k.Spawn("w", func(p *Proc) {
			// The body starts at now = ContextSwitch = 10, so any skew
			// below -10 underflows without the clamp.
			got = p.ReadTSC()
			want = c.want(p.Now(), c.skew)
		})
		k.Run()
		if got != want {
			t.Errorf("skew %d: ReadTSC = %d, want %d", c.skew, got, want)
		}
	}
}

func TestTSCDeltaClampsUnderflow(t *testing.T) {
	cases := []struct{ end, start, want uint64 }{
		{100, 40, 60},
		{40, 40, 0},
		{39, 40, 0}, // cross-CPU migration: end behind start
		{0, ^uint64(0), 0},
	}
	for _, c := range cases {
		if got := TSCDelta(c.end, c.start); got != c.want {
			t.Errorf("TSCDelta(%d, %d) = %d, want %d", c.end, c.start, got, c.want)
		}
	}
}

func TestKernelLoadCountsRunnableAndRunning(t *testing.T) {
	k := New(Config{NumCPUs: 1, ContextSwitch: 100})
	var loads []int
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			// Each body observes the load while it runs: itself plus
			// every not-yet-finished sibling still queued.
			loads = append(loads, k.Load())
			p.Exec(500)
		})
	}
	k.Run()
	if len(loads) != 3 || loads[0] != 3 || loads[1] != 2 || loads[2] != 1 {
		t.Errorf("observed loads = %v, want [3 2 1]", loads)
	}
	if got := k.Load(); got != 0 {
		t.Errorf("load after Run = %d, want 0", got)
	}
}

func TestLoadOccupancyAccountsAllCycles(t *testing.T) {
	k := New(Config{NumCPUs: 1, ContextSwitch: 100})
	k.TrackLoad()
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) { p.Exec(1_000) })
	}
	k.Run()
	occ := k.LoadOccupancy()
	var total uint64
	for _, c := range occ {
		total += c
	}
	// Every simulated cycle sits in exactly one band.
	if total != k.Now() {
		t.Errorf("occupancy total = %d, want clock %d (occ %v)", total, k.Now(), occ)
	}
	// With 3 procs on one CPU the run starts in band 2-4 and drains
	// through band 1; band 5+ is never reached.
	if occ[0] == 0 || occ[1] == 0 {
		t.Errorf("bands 1 and 2-4 should both accrue: %v", occ)
	}
	if occ[2] != 0 {
		t.Errorf("band 5+ accrued %d cycles with only 3 procs", occ[2])
	}
}

func TestLoadOccupancyZeroWithoutTracking(t *testing.T) {
	k := New(Config{NumCPUs: 1, ContextSwitch: 100})
	k.Spawn("w", func(p *Proc) { p.Exec(1_000) })
	k.Run()
	if occ := k.LoadOccupancy(); occ != [core.LoadBands]uint64{} {
		t.Errorf("untracked kernel accrued occupancy: %v", occ)
	}
}

// checkSingleAssignment scans the machine for the dispatch invariant:
// a process occupies at most one CPU, and an occupied CPU's process
// points back at it in a running or spinning state.
func checkSingleAssignment(t *testing.T, k *Kernel) {
	t.Helper()
	seen := make(map[*Proc]int)
	for _, c := range k.cpus {
		p := c.p
		if p == nil {
			continue
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("proc %q on CPU %d and CPU %d at t=%d", p.Name(), prev, c.idx, k.Now())
		}
		seen[p] = c.idx
		if p.cpu != c {
			t.Fatalf("proc %q on CPU %d does not point back at it (t=%d)", p.Name(), c.idx, k.Now())
		}
		if p.state != stateRunning && p.state != stateSpinning {
			t.Fatalf("proc %q occupies CPU %d in state %d (t=%d)", p.Name(), c.idx, p.state, k.Now())
		}
	}
}

// TestNoProcOnTwoCPUs is the SMP dispatch property test: under a
// preemptive, wake-preempting schedule with sleeps forcing migrations,
// no process is ever assigned to two CPUs at once. The invariant is
// checked from inside every process body step — thousands of distinct
// machine states across the interleaving.
func TestNoProcOnTwoCPUs(t *testing.T) {
	for _, ncpu := range []int{2, 4} {
		k := New(Config{
			NumCPUs:       ncpu,
			ContextSwitch: 100,
			TickPeriod:    3_000,
			TickCost:      50,
			Quantum:       2_000,
			Preemptive:    true,
			WakePreempt:   true,
			Seed:          int64(ncpu),
		})
		for i := 0; i < 4*ncpu; i++ {
			k.Spawn("w", func(p *Proc) {
				for j := 0; j < 40; j++ {
					p.Exec(uint64(k.Rand().Intn(1_500)) + 1)
					checkSingleAssignment(t, k)
					if j%5 == 0 {
						p.Sleep(uint64(k.Rand().Intn(2_000)) + 1)
					}
					if j%7 == 0 {
						p.YieldCPU()
					}
					checkSingleAssignment(t, k)
				}
			})
		}
		k.Run()
	}
}

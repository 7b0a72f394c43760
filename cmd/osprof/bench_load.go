package main

import (
	"fmt"
	"io"
	"time"

	"osprof/internal/core"
	"osprof/internal/experiments"
	"osprof/internal/load"
	"osprof/internal/scenario"
	"osprof/internal/sim"
	"osprof/internal/vfs"
)

// This file implements `osprof bench load`: the overhead budget for
// load-conditioned profiling. It runs the same contended readzero
// workload at NumCPUs 1/2/4 with load profiling off and on, compares
// simulated-ops-per-wall-second, and fails if conditioning ever costs
// more than the 5% budget — the probe must stay a pure observer on the
// hot path.

// benchLoadSchema versions the bench report document.
const benchLoadSchema = "osprof-bench-load/v1"

// benchLoadGatePct is the maximum profiling overhead the gate accepts.
const benchLoadGatePct = 5.0

// benchLoadDoc is the `osprof bench load` report.
type benchLoadDoc struct {
	Schema  string          `json:"schema"`
	GatePct float64         `json:"gate_pct"`
	Cells   []benchLoadCell `json:"cells"`

	// MaxOverheadPct is the worst cell's overhead; the gate fails when
	// it exceeds GatePct.
	MaxOverheadPct float64 `json:"max_overhead_pct"`
}

// benchLoadCell is one NumCPUs configuration's measurement.
type benchLoadCell struct {
	CPUs  int `json:"cpus"`
	Procs int `json:"procs"`

	// Simulated operations completed per wall-clock second, best of
	// the measurement repetitions.
	OpsPerSecOff float64 `json:"ops_per_sec_off"`
	OpsPerSecOn  float64 `json:"ops_per_sec_on"`

	// OverheadPct is the throughput lost to load profiling; negative
	// values (noise) are clamped to 0.
	OverheadPct float64 `json:"overhead_pct"`
}

// benchLoadSpec builds the measured workload: 2*cpus readzero
// processes hammering one cached page, the LoadCells shape at a fixed
// fan-out ratio so every cell spends real time contended.
func benchLoadSpec(cpus int, loadOn bool) scenario.Spec {
	return scenario.Spec{
		Name:    fmt.Sprintf("bench/load-%dcpu", cpus),
		Backend: scenario.Ext2,
		Kernel: sim.Config{
			NumCPUs:       cpus,
			Quantum:       1 << 14,
			TickPeriod:    1 << 12,
			TickCost:      800,
			Preemptive:    true,
			WakePreempt:   true,
			ContextSwitch: 9_350,
			Seed:          int64(cpus),
		},
		CachePages:  1 << 10,
		Files:       []scenario.FileSpec{{Name: "zero", Size: vfs.PageSize}},
		Instrument:  scenario.Instrument{Point: scenario.FSLevel},
		LoadProfile: loadOn,
		Workloads: []scenario.Workload{
			{Kind: scenario.ReadZero, ProcName: "reader", Procs: 2 * cpus, Amount: 8_000, Path: "/zero"},
		},
	}
}

// benchLoadBaseOps counts the base-op samples only: a conditioned run
// records every sample twice (base profile + banded companion), so
// TotalOps would credit the conditioned side with double the work and
// the off/on comparison would be meaningless.
func benchLoadBaseOps(set *core.Set) uint64 {
	var n uint64
	for _, op := range set.Ops() {
		if _, _, ok := load.SplitOp(op); ok {
			continue
		}
		n += set.Get(op).Count
	}
	return n
}

// benchLoadRate runs the spec once and returns its
// simulated-ops-per-wall-second.
func benchLoadRate(spec scenario.Spec) (float64, error) {
	start := time.Now()
	r := experiments.RecordScenario(spec)
	elapsed := time.Since(start).Seconds()
	if r.Err != nil {
		return 0, r.Err
	}
	set := r.ProfileSet()
	if set == nil || elapsed <= 0 {
		return 0, fmt.Errorf("%s: no profile set", spec.Name)
	}
	return float64(benchLoadBaseOps(set)) / elapsed, nil
}

// benchLoadPair measures the off and on rates back to back, reps
// times, interleaved so machine drift hits both sides equally, and
// returns the best of each (best-of minimizes scheduler noise).
func benchLoadPair(cpus, reps int) (off, on float64, err error) {
	for i := 0; i < reps; i++ {
		o, err := benchLoadRate(benchLoadSpec(cpus, false))
		if err != nil {
			return 0, 0, err
		}
		n, err := benchLoadRate(benchLoadSpec(cpus, true))
		if err != nil {
			return 0, 0, err
		}
		if o > off {
			off = o
		}
		if n > on {
			on = n
		}
	}
	return off, on, nil
}

// cmdBenchLoad implements `osprof bench load`.
func cmdBenchLoad(out string, stdout, stderr io.Writer) int {
	const reps = 5
	doc := benchLoadDoc{Schema: benchLoadSchema, GatePct: benchLoadGatePct}
	for _, cpus := range []int{1, 2, 4} {
		off, on, err := benchLoadPair(cpus, reps)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		cell := benchLoadCell{CPUs: cpus, Procs: 2 * cpus, OpsPerSecOff: off, OpsPerSecOn: on}
		if on < off {
			cell.OverheadPct = 100 * (off - on) / off
		}
		if cell.OverheadPct > doc.MaxOverheadPct {
			doc.MaxOverheadPct = cell.OverheadPct
		}
		doc.Cells = append(doc.Cells, cell)
	}
	if code := writeBenchDoc(stdout, stderr, out, doc); code != 0 {
		return code
	}
	if doc.MaxOverheadPct > benchLoadGatePct {
		fmt.Fprintf(stderr, "osprof: bench load failed: %.1f%% overhead exceeds the %.0f%% budget\n",
			doc.MaxOverheadPct, benchLoadGatePct)
		return 1
	}
	return 0
}

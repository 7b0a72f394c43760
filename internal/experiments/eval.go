package experiments

import (
	"fmt"
	"io"
	"sync"

	"osprof/internal/analysis"
	"osprof/internal/core"
	"osprof/internal/cycles"
	"osprof/internal/fs/ext2"
	"osprof/internal/fsprof"
	"osprof/internal/live"
	"osprof/internal/scenario"
	"osprof/internal/sim"
	"osprof/internal/synthetic"
	"osprof/internal/workload"
)

// ---------------------------------------------------------------------
// §5.1: memory usage

// EvalMemoryResult reproduces the memory-overhead numbers: a profile
// occupies a fixed area whose size depends on the number of implemented
// operations, usually under 1 KB per operation.
type EvalMemoryResult struct {
	PerOpBytes int
	Ops        int
	TotalBytes int
}

// RunEvalMemory measures the profile footprint of a fully instrumented
// file system after a Postmark run.
func RunEvalMemory() *EvalMemoryResult {
	set := evalPostmarkSet()
	r := &EvalMemoryResult{
		Ops:        set.Len(),
		TotalBytes: set.MemoryFootprint(),
	}
	if r.Ops > 0 {
		r.PerOpBytes = r.TotalBytes / r.Ops
	}
	return r
}

func evalPostmarkSet() *core.Set {
	st := scenario.MustBuild(scenario.Spec{
		Name:       "eval-memory",
		Kernel:     sim.Config{NumCPUs: 1, ContextSwitch: 9_350, Seed: 21},
		Backend:    scenario.Ext2,
		CachePages: 1 << 14,
		Instrument: scenario.Instrument{Point: scenario.FSLevel},
		SetName:    "postmark",
		Workloads: []scenario.Workload{{
			Kind: scenario.Postmark, Files: 100, Amount: 500, Seed: 2,
		}},
	}).Run()
	return st.Set
}

// ID implements Result.
func (r *EvalMemoryResult) ID() string { return "eval-memory" }

// Checks implements Result.
func (r *EvalMemoryResult) Checks() []Check {
	return []Check{
		check("profiles recorded for many operations", r.Ops >= 8, "ops=%d", r.Ops),
		check("per-operation profile under 1KB", r.PerOpBytes <= 1024,
			"%d bytes/op (paper: <1KB)", r.PerOpBytes),
		check("whole profile set small", r.TotalBytes <= 16<<10,
			"%d bytes total (paper: ~9KB code + <1KB/op)", r.TotalBytes),
	}
}

// Report implements Result.
func (r *EvalMemoryResult) Report(w io.Writer) {
	fmt.Fprintln(w, "=== §5.1: memory usage ===")
	fmt.Fprintf(w, "operations profiled: %d\n", r.Ops)
	fmt.Fprintf(w, "per-operation footprint: %d bytes\n", r.PerOpBytes)
	fmt.Fprintf(w, "total profile memory: %d bytes\n", r.TotalBytes)
}

// ---------------------------------------------------------------------
// §5.2: CPU-time overhead decomposition

// EvalOverheadParams scales the Postmark overhead run. The paper used
// 20,000 files and 200,000 transactions; the default here is 400/4000
// (documented substitution — relative overheads are what matter).
type EvalOverheadParams struct {
	Files, Transactions int
}

// EvalOverheadRow is one instrumentation mode's measurement.
type EvalOverheadRow struct {
	Mode      string
	SysCPU    uint64
	Elapsed   uint64
	WaitTime  uint64
	OverheadP float64 // system-time overhead vs baseline, percent
}

// EvalOverheadResult decomposes instrumentation cost like the paper:
// function calls (~1.5%), TSC reads (~0.5%), sorting and storing
// (~2.0%) of Postmark system time, ~4% total; minimum recorded latency
// in bucket 5 (the ~40 cycles between the TSC reads).
type EvalOverheadResult struct {
	Rows      []EvalOverheadRow
	MinBucket int
	MinCycles uint64
	VFSOps    uint64
}

// RunEvalOverhead reproduces §5.2.
func RunEvalOverhead(p EvalOverheadParams) *EvalOverheadResult {
	if p.Files == 0 {
		p.Files = 400
	}
	if p.Transactions == 0 {
		p.Transactions = 4_000
	}
	r := &EvalOverheadResult{MinBucket: 99}

	type modeSpec struct {
		name       string
		instrument bool
		mode       fsprof.Mode
	}
	modes := []modeSpec{
		{"baseline", false, fsprof.Full},
		{"empty-hooks", true, fsprof.EmptyHooks},
		{"tsc-only", true, fsprof.TSCOnly},
		{"full", true, fsprof.Full},
	}
	var base EvalOverheadRow
	for _, m := range modes {
		point := scenario.NoProfiler
		if m.instrument {
			point = scenario.FSLevel
		}
		var st sim.ProcStats
		var pm workload.PostmarkStats
		stack := scenario.MustBuild(scenario.Spec{
			Name: "eval-overhead",
			// A Linux-2.6-with-preemption machine: the flushing daemon
			// must be able to steal the CPU from the CPU-bound
			// benchmark.
			Kernel: sim.Config{
				NumCPUs:       1,
				ContextSwitch: 9_350,
				Quantum:       1 << 22,
				TickPeriod:    1 << 20,
				TickCost:      10_000,
				Preemptive:    true,
				WakePreempt:   true,
				Seed:          22,
			},
			Backend: scenario.Ext2,
			// Like the paper's configuration, the working set exceeds
			// the OS caches "so that I/O requests will reach the disk"
			// (§5.2): a small page cache plus a flushing daemon scaled
			// to the shortened run.
			CachePages: 400,
			Ext2:       ext2.Config{DirtyPageLimit: 300},
			Flusher: &scenario.FlusherSpec{
				Interval: 10 * cycles.PerMillisecond,
				Age:      15 * cycles.PerMillisecond,
			},
			Instrument: scenario.Instrument{Point: point, Mode: m.mode},
			SetName:    m.name,
			Workloads: []scenario.Workload{{
				Kind:     scenario.Custom,
				ProcName: "postmark",
				Body: func(proc *sim.Proc, _ int, stk *scenario.Stack) {
					pm = (&workload.Postmark{
						Sys: stk.Sys, Files: p.Files, Transactions: p.Transactions, Seed: 5,
					}).Run(proc)
					st = proc.Stats()
				},
			}},
		}).Run()
		set := stack.Set
		row := EvalOverheadRow{
			Mode:     m.name,
			SysCPU:   st.SysCPU,
			Elapsed:  stack.K.Now(),
			WaitTime: st.WaitBlocked,
		}
		if m.name == "baseline" {
			base = row
			r.VFSOps = pm.VFSOps
		} else {
			row.OverheadP = 100 * float64(row.SysCPU-base.SysCPU) / float64(base.SysCPU)
		}
		r.Rows = append(r.Rows, row)
		if m.name == "full" {
			for _, prof := range set.Profiles() {
				if prof.Count == 0 {
					continue
				}
				if lo, _, ok := prof.Range(); ok && lo < r.MinBucket {
					r.MinBucket = lo
				}
				if r.MinCycles == 0 || prof.Min < r.MinCycles {
					r.MinCycles = prof.Min
				}
			}
		}
	}
	return r
}

func (r *EvalOverheadResult) row(name string) EvalOverheadRow {
	for _, row := range r.Rows {
		if row.Mode == name {
			return row
		}
	}
	return EvalOverheadRow{}
}

// ID implements Result.
func (r *EvalOverheadResult) ID() string { return "eval-overhead" }

// Checks implements Result.
func (r *EvalOverheadResult) Checks() []Check {
	var cs []Check
	base := r.row("baseline")
	empty := r.row("empty-hooks")
	tsc := r.row("tsc-only")
	full := r.row("full")

	cs = append(cs, check("system-time overhead ordering",
		base.SysCPU < empty.SysCPU && empty.SysCPU < tsc.SysCPU && tsc.SysCPU < full.SysCPU,
		"base=%d empty=%d tsc=%d full=%d", base.SysCPU, empty.SysCPU, tsc.SysCPU, full.SysCPU))

	cs = append(cs, check("full profiling overhead a few percent",
		full.OverheadP > 1 && full.OverheadP < 8,
		"%.1f%% (paper: 4.0%%)", full.OverheadP))

	calls := empty.OverheadP
	tscOnly := tsc.OverheadP - empty.OverheadP
	store := full.OverheadP - tsc.OverheadP
	cs = append(cs, check("sort+store largest component, TSC smallest",
		store > calls && calls > tscOnly && tscOnly > 0,
		"calls=%.2f%% tsc=%.2f%% store=%.2f%% (paper: 1.5/0.5/2.0)",
		calls, tscOnly, store))

	cs = append(cs, check("minimum recorded latency at the probe floor",
		r.MinBucket >= 5 && r.MinBucket <= 6 && r.MinCycles >= 40 && r.MinCycles < 128,
		"min bucket=%d min=%d cycles (paper: bucket 5, the ~40-cycle TSC window)",
		r.MinBucket, r.MinCycles))

	// Wait time is I/O-bound and essentially unaffected.
	waitDelta := relDiff(full.WaitTime, base.WaitTime)
	cs = append(cs, check("workload reaches the disk",
		base.WaitTime > 0, "baseline wait=%d cycles", base.WaitTime))
	cs = append(cs, check("wait time unaffected by instrumentation",
		waitDelta < 0.25, "wait delta=%.1f%%", 100*waitDelta))

	// Elapsed-time overhead small for the I/O-bound workload (§7:
	// "elapsed time overhead of less than 1%").
	elapsedDelta := relDiff(full.Elapsed, base.Elapsed)
	cs = append(cs, check("elapsed-time overhead small",
		elapsedDelta < 0.05, "elapsed delta=%.2f%%", 100*elapsedDelta))
	return cs
}

func relDiff(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	d := float64(a) - float64(b)
	if d < 0 {
		d = -d
	}
	return d / float64(b)
}

// Report implements Result.
func (r *EvalOverheadResult) Report(w io.Writer) {
	fmt.Fprintln(w, "=== §5.2: Postmark instrumentation overheads ===")
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "MODE", "SYS CPU", "ELAPSED", "OVERHEAD")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %14d %14d %9.2f%%\n",
			row.Mode, row.SysCPU, row.Elapsed, row.OverheadP)
	}
	fmt.Fprintf(w, "VFS operations: %d\n", r.VFSOps)
	fmt.Fprintf(w, "minimum recorded latency: %d cycles (bucket %d)\n",
		r.MinCycles, r.MinBucket)
}

// ---------------------------------------------------------------------
// §5.3: automated analysis accuracy

// EvalAccuracyParams scales the labeled-pair study.
type EvalAccuracyParams struct {
	// Pairs per corpus (default 250, as in the paper).
	Pairs int
}

// EvalAccuracyRow is one method's error rate.
type EvalAccuracyRow struct {
	Method    analysis.Method
	Threshold float64
	Errors    int
	ErrorRate float64
}

// EvalAccuracyResult reproduces the §5.3 study: thresholds calibrated
// on a training corpus, error rates measured on a fresh one. The paper
// found EMD best (2%), then total latency (3%), total operation counts
// (4%), and chi-square worst (5%).
type EvalAccuracyResult struct {
	Rows  []EvalAccuracyRow
	Pairs int
}

// RunEvalAccuracy reproduces §5.3.
func RunEvalAccuracy(p EvalAccuracyParams) *EvalAccuracyResult {
	if p.Pairs == 0 {
		p.Pairs = 250
	}
	train := synthetic.Generate(synthetic.Spec{Pairs: p.Pairs, Seed: 100})
	eval := synthetic.Generate(synthetic.Spec{Pairs: p.Pairs, Seed: 200})

	methods := []analysis.Method{
		analysis.EMD, analysis.TotalLatency, analysis.TotalOps, analysis.ChiSquare,
	}
	r := &EvalAccuracyResult{Pairs: p.Pairs}
	for _, m := range methods {
		thr := calibrate(m, train)
		errs := 0
		for _, pair := range eval {
			predicted := analysis.Score(m, pair.A, pair.B) >= thr
			if predicted != pair.Important {
				errs++
			}
		}
		r.Rows = append(r.Rows, EvalAccuracyRow{
			Method:    m,
			Threshold: thr,
			Errors:    errs,
			ErrorRate: float64(errs) / float64(len(eval)),
		})
	}
	return r
}

// calibrate picks the threshold minimizing training error.
func calibrate(m analysis.Method, pairs []synthetic.Pair) float64 {
	scores := make([]float64, len(pairs))
	for i, pair := range pairs {
		scores[i] = analysis.Score(m, pair.A, pair.B)
	}
	best, bestErr := 0.0, len(pairs)+1
	for _, thr := range scores {
		errs := 0
		for i, pair := range pairs {
			if (scores[i] >= thr) != pair.Important {
				errs++
			}
		}
		if errs < bestErr {
			bestErr, best = errs, thr
		}
	}
	return best
}

// ID implements Result.
func (r *EvalAccuracyResult) ID() string { return "eval-accuracy" }

// Checks implements Result.
func (r *EvalAccuracyResult) Checks() []Check {
	var cs []Check
	byMethod := map[analysis.Method]float64{}
	for _, row := range r.Rows {
		byMethod[row.Method] = row.ErrorRate
	}
	cs = append(cs, check("EMD has the smallest error rate",
		byMethod[analysis.EMD] <= byMethod[analysis.TotalLatency] &&
			byMethod[analysis.EMD] <= byMethod[analysis.TotalOps] &&
			byMethod[analysis.EMD] <= byMethod[analysis.ChiSquare],
		"emd=%.1f%% lat=%.1f%% ops=%.1f%% chi=%.1f%% (paper: 2/3/4/5)",
		100*byMethod[analysis.EMD], 100*byMethod[analysis.TotalLatency],
		100*byMethod[analysis.TotalOps], 100*byMethod[analysis.ChiSquare]))
	cs = append(cs, check("cross-bin EMD beats bin-by-bin chi-square",
		byMethod[analysis.ChiSquare] > byMethod[analysis.EMD],
		"chi=%.1f%% > emd=%.1f%% (the paper's §3.2 argument)",
		100*byMethod[analysis.ChiSquare], 100*byMethod[analysis.EMD]))
	cs = append(cs, check("EMD error rate small",
		byMethod[analysis.EMD] <= 0.08,
		"emd=%.1f%% (paper: 2%%)", 100*byMethod[analysis.EMD]))
	return cs
}

// Report implements Result.
func (r *EvalAccuracyResult) Report(w io.Writer) {
	fmt.Fprintf(w, "=== §5.3: automated analysis accuracy (%d labeled pairs) ===\n", r.Pairs)
	fmt.Fprintf(w, "%-14s %10s %8s %10s\n", "METHOD", "THRESHOLD", "ERRORS", "ERROR RATE")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %10.4f %8d %9.1f%%\n",
			row.Method, row.Threshold, row.Errors, 100*row.ErrorRate)
	}
}

// ---------------------------------------------------------------------
// §3.4: bucket-update locking strategies

// EvalLockingParams scales the lost-update measurement (real Go
// concurrency, not simulation).
type EvalLockingParams struct {
	// UpdatesPerWorker per goroutine (default 200,000).
	UpdatesPerWorker int
}

// EvalLockingRow is one configuration's loss measurement.
type EvalLockingRow struct {
	Mode      core.LockingMode
	Workers   int
	Realistic bool // spread buckets + work between updates
	Attempts  uint64
	Lost      uint64
	LossRate  float64
}

// EvalLockingResult reproduces the §3.4 observations: unsynchronized
// updates lose a small fraction of concurrent increments (the paper
// saw <1% on a dual-CPU worst case), while locked and per-thread
// (sharded) updates lose none.
type EvalLockingResult struct {
	Rows []EvalLockingRow
}

// RunEvalLocking reproduces the §3.4 measurement.
func RunEvalLocking(p EvalLockingParams) *EvalLockingResult {
	if p.UpdatesPerWorker == 0 {
		p.UpdatesPerWorker = 200_000
	}
	r := &EvalLockingResult{}
	configs := []struct {
		mode      core.LockingMode
		workers   int
		realistic bool
	}{
		{core.Unsync, 2, false}, // the paper's worst case: one bucket, tight loop
		{core.Unsync, 2, true},  // real workloads: spread buckets, work between
		{core.Unsync, 8, false},
		{core.Locked, 8, false},
		{core.Sharded, 8, false},
	}
	for _, cfg := range configs {
		// The collector is constructed through the live Recorder
		// options — the same path a production program uses — but the
		// workers hammer the pre-resolved handle directly: this
		// experiment measures the raw §3.4 bucket-update strategies,
		// so the recorder's per-call map read-lock must stay out of
		// the contention being measured.
		rec := live.New(live.WithLockingMode(cfg.mode), live.WithShards(cfg.workers))
		prof := rec.Collector("op")
		var wg sync.WaitGroup
		for wkr := 0; wkr < cfg.workers; wkr++ {
			wkr := wkr
			wg.Add(1)
			go func() {
				defer wg.Done()
				spin := uint64(1)
				for i := 0; i < p.UpdatesPerWorker; i++ {
					if cfg.realistic {
						// "For real workloads this number is much
						// smaller because the profiler updates
						// different buckets and the update frequency
						// is smaller" (§3.4).
						for j := 0; j < 300; j++ {
							spin = spin*2862933555777941757 + 3037000493
						}
						prof.Record(wkr, spin)
					} else {
						prof.Record(wkr, 100) // worst case: same bucket
					}
				}
			}()
		}
		wg.Wait()
		row := EvalLockingRow{
			Mode:      cfg.mode,
			Workers:   cfg.workers,
			Realistic: cfg.realistic,
			Attempts:  prof.Attempts(),
			Lost:      prof.Lost(),
		}
		row.LossRate = float64(row.Lost) / float64(row.Attempts)
		r.Rows = append(r.Rows, row)
	}
	return r
}

// ID implements Result.
func (r *EvalLockingResult) ID() string { return "eval-locking" }

// Checks implements Result.
func (r *EvalLockingResult) Checks() []Check {
	var cs []Check
	for _, row := range r.Rows {
		switch row.Mode {
		case core.Locked:
			cs = append(cs, check("locked mode loses nothing",
				row.Lost == 0, "lost=%d", row.Lost))
		case core.Sharded:
			cs = append(cs, check("sharded (per-thread) mode loses nothing",
				row.Lost == 0, "lost=%d (§3.4 solution 2)", row.Lost))
		case core.Unsync:
			if row.Workers == 2 && !row.Realistic {
				cs = append(cs, Check{Name: "unsync worst-case loss bounded",
					OK: row.LossRate < 0.60,
					Detail: "paper: <1% on its 2-CPU hardware; a Go " +
						"load/store pair has a wider race window",
					Measured: fmt.Sprintf("loss=%.3f%%", 100*row.LossRate)})
			}
			if row.Realistic {
				cs = append(cs, Check{Name: "unsync loss under realistic workload <1%",
					OK:       row.LossRate < 0.01,
					Detail:   "paper: much smaller than the worst case",
					Measured: fmt.Sprintf("loss=%.4f%%", 100*row.LossRate)})
			}
		}
	}
	return cs
}

// Report implements Result.
func (r *EvalLockingResult) Report(w io.Writer) {
	fmt.Fprintln(w, "=== §3.4: bucket-update locking strategies (real goroutines) ===")
	fmt.Fprintf(w, "%-10s %8s %10s %12s %10s %10s\n",
		"MODE", "WORKERS", "WORKLOAD", "ATTEMPTS", "LOST", "LOSS")
	for _, row := range r.Rows {
		kind := "worst-case"
		if row.Realistic {
			kind = "realistic"
		}
		fmt.Fprintf(w, "%-10s %8d %10s %12d %10d %9.4f%%\n",
			row.Mode, row.Workers, kind, row.Attempts, row.Lost, 100*row.LossRate)
	}
}

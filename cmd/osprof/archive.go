package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/experiments"
	"osprof/internal/fault"
	"osprof/internal/report"
	"osprof/internal/runner"
	"osprof/internal/store"
)

// This file implements the archive-backed subcommands: `record`
// persists runs of the recordable scenarios (matrix + kernel-config
// variants) into the content-addressed archive, `baseline` blesses
// the recorded runs as the per-fingerprint reference, and `diff`
// performs differential analysis — pairwise between two run
// references, or as a matrix-wide regression gate that re-records the
// scenarios and holds each fresh run against its baseline.

// cmdRecord implements `osprof record` (and, with markBaseline, the
// recording half of `osprof baseline`). A non-empty inject names a
// fault preset applied to every selected scenario before recording:
// the degraded twin keeps the scenario's name — the watch layer
// matches ingests to baselines by name — but fingerprints as its own
// world, so healthy baselines are never overwritten. traceOn records
// each scenario with layer tracing enabled (internal/trace): the
// traced twin also keeps its name but fingerprints as its own world,
// so untraced baselines and their byte-identical envelopes survive.
// loadOn does the same for load-conditioned profiling (internal/load):
// the load-profiled twin fingerprints as its own world too.
func cmdRecord(rest []string, seed int64, archiveDir string, opt runner.Options,
	jsonOut, markBaseline bool, inject string, traceOn, loadOn bool, stdout, stderr io.Writer) int {
	if inject == "list" {
		for _, name := range fault.PresetNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if inject != "" && markBaseline {
		fmt.Fprintln(stderr, "osprof: refusing to bless fault-injected runs as baselines (drop -inject)")
		return 2
	}
	reg, fps, ids := experiments.Recordables(seed)
	if inject != "" || traceOn || loadOn {
		if inject != "" {
			if _, ok := fault.Preset(inject); !ok {
				fmt.Fprintf(stderr, "osprof: unknown fault preset %q (try `osprof record -inject list`)\n", inject)
				return 2
			}
		}
		reg = make(map[string]func() experiments.Result, len(ids))
		fps = make(map[string]string, len(ids))
		ids = ids[:0]
		for _, spec := range experiments.RecordableSpecs(seed) {
			spec := spec
			if inject != "" {
				// A fresh preset per spec: scenarios must not share
				// fault state even by accident.
				spec.Injections, _ = fault.Preset(inject)
			}
			spec.Trace = traceOn
			if loadOn {
				// OR, not assign: the load cells are load-profiled by
				// construction and must stay so under -trace/-inject.
				spec.LoadProfile = true
			}
			reg[spec.Name] = func() experiments.Result { return experiments.RecordScenario(spec) }
			fps[spec.Name] = spec.Fingerprint()
			ids = append(ids, spec.Name)
		}
	}
	if len(rest) == 1 && rest[0] == "list" {
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	arch, err := store.Open(archiveDir)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	ids = expand(rest, ids)
	jobs := make([]runner.Job, 0, len(ids))
	for _, id := range ids {
		ctor := reg[id]
		if ctor == nil {
			fmt.Fprintf(stderr, "osprof: unknown scenario %q (try `osprof record list`)\n", id)
			return 2
		}
		jobs = append(jobs, runner.Job{ID: id, New: ctor, Fingerprint: fps[id]})
	}
	var post func(*runner.RunResult)
	if markBaseline {
		post = func(rr *runner.RunResult) {
			if err := arch.SetBaseline(rr.Fingerprint, rr.RunID); err != nil {
				rr.ArchiveErr = err.Error()
				rr.Failed++
			}
		}
	}
	verb := "recorded"
	if markBaseline {
		verb = "baseline"
	}
	if inject != "" {
		verb = "injected"
	}
	if traceOn {
		verb = "traced"
	}
	if loadOn {
		verb = "loaded"
	}
	return runArchived(arch, jobs, opt, jsonOut, stdout, stderr, post,
		func(w io.Writer, rr *runner.RunResult) {
			fmt.Fprintf(w, "%-8s %-28s fingerprint=%.12s run=%.12s %s\n",
				verb, rr.ID, rr.Fingerprint, rr.RunID, dedupNote(rr))
		})
}

// runArchived is the shared tail of the recording subcommands
// (`record`, `baseline`, `corpus build`): run the jobs against the
// archive, apply the optional post-run hook to each successfully
// archived result (baseline blessing; the hook may mark the result
// failed), emit JSON or one text row per result, and map failures to
// exit code 1.
func runArchived(arch *store.Archive, jobs []runner.Job, opt runner.Options,
	jsonOut bool, stdout, stderr io.Writer, post func(*runner.RunResult),
	row func(io.Writer, *runner.RunResult)) int {
	opt.Archive = arch
	results := runner.Run(jobs, opt)
	if post != nil {
		for i := range results {
			if rr := &results[i]; rr.RunID != "" && rr.OK() {
				post(rr)
			}
		}
	}
	if jsonOut {
		if err := runner.WriteJSON(stdout, results); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
	} else {
		for i := range results {
			rr := &results[i]
			if !rr.OK() {
				fmt.Fprintf(stdout, "FAILED   %-28s %s%s\n", rr.ID,
					firstFailure(rr), rr.Panic)
				continue
			}
			row(stdout, rr)
		}
	}
	if failed := runner.FailedChecks(results); failed > 0 {
		fmt.Fprintf(stderr, "osprof: %d failed checks\n", failed)
		return 1
	}
	return 0
}

// dedupNote labels a result as a fresh or deduplicated archive write.
func dedupNote(rr *runner.RunResult) string {
	if rr.Dedup {
		return "dedup"
	}
	return "new"
}

// firstFailure summarizes the first failed check for the text output.
func firstFailure(rr *runner.RunResult) string {
	for _, c := range rr.Checks {
		if !c.OK {
			return c.Name + ": " + c.Text()
		}
	}
	return rr.ArchiveErr
}

// cmdBaselineList implements `osprof baseline list`.
func cmdBaselineList(archiveDir string, stdout, stderr io.Writer) int {
	arch, err := store.Open(archiveDir)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	entries, err := arch.List()
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	baselines, err := arch.Baselines()
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	for _, e := range entries { // stable record order
		if baselines[e.Fingerprint] == e.ID {
			fmt.Fprintf(stdout, "baseline %-22s fingerprint=%.12s run=%.12s\n",
				e.Name, e.Fingerprint, e.ID)
			delete(baselines, e.Fingerprint)
		}
	}
	return 0
}

// cmdDiff implements `osprof diff`: with two run references it renders
// the pairwise differential report; with scenario ids (or nothing =
// all) it runs the regression gate. Exit codes: 0 no differences, 1
// differences found, 2 usage/archive errors.
func cmdDiff(rest []string, seed int64, archiveDir string, opt runner.Options,
	jsonOut, layers, loadFlag bool, stdout, stderr io.Writer) int {
	arch, err := store.Open(archiveDir)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	// Scenario ids (and the literal "all") always mean the gate: a
	// stray same-named file in the working directory must not flip the
	// documented `osprof diff all` into file-reference mode.
	_, fps, ids := experiments.Recordables(seed)
	scenarioID := map[string]bool{"all": true}
	for _, id := range ids {
		scenarioID[id] = true
	}
	isRef := func(s string) bool { return !scenarioID[s] && isRunRef(s) }
	if len(rest) == 2 && isRef(rest[0]) && isRef(rest[1]) {
		return diffPair(arch, rest[0], rest[1], jsonOut, layers, loadFlag, stdout, stderr)
	}
	for _, r := range rest {
		if isRef(r) {
			fmt.Fprintf(stderr, "osprof: diff takes exactly two run references (or scenario ids for the gate), got %q\n", r)
			return 2
		}
	}
	if layers || loadFlag {
		fmt.Fprintln(stderr, "osprof: -layers/-load apply to the pairwise diff, not the regression gate")
		return 2
	}
	return diffGate(arch, rest, seed, fps, opt, jsonOut, stdout, stderr)
}

// isRunRef reports whether the argument names a concrete run — a
// latest:/baseline: reference, an existing file, or a hex run-ID
// prefix — as opposed to a scenario id (which contains '/', never
// all-hex). Known scenario ids are excluded by the caller before this
// is consulted.
func isRunRef(s string) bool {
	if strings.HasPrefix(s, "latest:") || strings.HasPrefix(s, "baseline:") {
		return true
	}
	if st, err := os.Stat(s); err == nil && !st.IsDir() {
		return true
	}
	if len(s) >= 6 {
		hex := true
		for _, c := range s {
			if !strings.ContainsRune("0123456789abcdef", c) {
				hex = false
				break
			}
		}
		return hex
	}
	return false
}

// resolveRun loads the run a reference names: a local envelope file,
// or anything store.Archive.ResolveRef understands (latest:<name>,
// baseline:<name>, a run-ID prefix — the same resolver `osprof serve`
// uses).
func resolveRun(arch *store.Archive, ref string) (*core.Run, error) {
	if st, err := os.Stat(ref); err == nil && !st.IsDir() &&
		!strings.HasPrefix(ref, "latest:") && !strings.HasPrefix(ref, "baseline:") {
		f, err := os.Open(ref)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.ReadRun(f)
	}
	id, err := arch.ResolveRef(ref)
	if err != nil {
		return nil, fmt.Errorf("%w (try `osprof record list` and `osprof record <id>`)", err)
	}
	return arch.Get(id)
}

// diffPair renders the differential analysis of two referenced runs.
// layers renders only the layer attribution (`osprof diff -layers`):
// which layer each changed traced operation moved in, without the
// per-operation verdict table or histograms. loadFlag renders only
// the load attribution (`osprof diff -load`): which load band each
// changed load-profiled operation moved at.
func diffPair(arch *store.Archive, refA, refB string, jsonOut, layers, loadFlag bool, stdout, stderr io.Writer) int {
	a, err := resolveRun(arch, refA)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %s: %v\n", refA, err)
		return 2
	}
	b, err := resolveRun(arch, refB)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %s: %v\n", refB, err)
		return 2
	}
	rep := diff.New().Runs(a, b)
	switch {
	case jsonOut:
		if err := report.JSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
	case layers:
		fmt.Fprintf(stdout, "=== diff -layers %q -> %q ===\n", rep.NameA, rep.NameB)
		fmt.Fprintf(stdout, "%d operations compared, %d changed\n", len(rep.Ops), rep.Changed)
		if len(rep.Layers) == 0 {
			fmt.Fprintln(stdout, "no layer attribution (untraced runs, or nothing moved); record with -trace")
		}
		for _, mv := range rep.Layers {
			fmt.Fprintf(stdout, "%-18s moved in %-10s %-14s score=%.3g  %s\n",
				mv.Op, mv.Layer, mv.Verdict, mv.Score, mv.Detail)
		}
	case loadFlag:
		fmt.Fprintf(stdout, "=== diff -load %q -> %q ===\n", rep.NameA, rep.NameB)
		fmt.Fprintf(stdout, "%d operations compared, %d changed\n", len(rep.Ops), rep.Changed)
		if len(rep.Loads) == 0 {
			fmt.Fprintln(stdout, "no load attribution (unconditioned runs, or nothing moved); record with -load")
		}
		for _, mv := range rep.Loads {
			fmt.Fprintf(stdout, "%-18s moved at load:%-5s %-14s score=%.3g  %s\n",
				mv.Op, mv.Band, mv.Verdict, mv.Score, mv.Detail)
		}
	default:
		report.Diff(stdout, rep, a.Set, b.Set, report.Options{})
	}
	if rep.Regression() {
		return 1
	}
	return 0
}

// diffGate is the matrix-wide regression gate: re-record the selected
// scenarios (archiving the fresh runs) and hold each against its
// blessed baseline.
func diffGate(arch *store.Archive, rest []string, seed int64, fps map[string]string,
	opt runner.Options, jsonOut bool, stdout, stderr io.Writer) int {
	reg, _, ids := experiments.Recordables(seed)
	ids = expand(rest, ids)

	// Collect the baselines first so a missing one fails fast, before
	// any simulation time is spent.
	baselines := make([]*core.Run, 0, len(ids))
	jobs := make([]runner.Job, 0, len(ids))
	for _, id := range ids {
		ctor := reg[id]
		if ctor == nil {
			fmt.Fprintf(stderr, "osprof: unknown scenario %q (try `osprof record list`)\n", id)
			return 2
		}
		e, ok, err := arch.Baseline(fps[id])
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		if !ok {
			fmt.Fprintf(stderr, "osprof: no baseline for %s at this configuration (run `osprof baseline %s` first)\n", id, id)
			return 2
		}
		base, err := arch.Get(e.ID)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		baselines = append(baselines, base)
		jobs = append(jobs, runner.Job{ID: id, New: ctor, Fingerprint: fps[id]})
	}

	opt.Archive = arch
	results := runner.Run(jobs, opt)
	if failed := runner.FailedChecks(results); failed > 0 {
		for i := range results {
			if !results[i].OK() {
				fmt.Fprintf(stderr, "osprof: %s failed: %s%s\n",
					results[i].ID, firstFailure(&results[i]), results[i].Panic)
			}
		}
		fmt.Fprintf(stderr, "osprof: %d failed checks\n", failed)
		return 1
	}
	fresh := make([]*core.Run, 0, len(results))
	for i := range results {
		run, err := arch.Get(results[i].RunID)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		fresh = append(fresh, run)
	}

	m := diff.New().Matrix(baselines, fresh)
	if jsonOut {
		if err := report.JSON(stdout, m); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
	} else {
		report.MatrixDiff(stdout, m)
	}
	if m.Regression() {
		fmt.Fprintf(stderr, "osprof: %d regressions against the baseline archive\n", m.Changed)
		return 1
	}
	return 0
}

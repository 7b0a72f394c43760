package experiments

import (
	"bytes"
	"fmt"
	"io"

	"osprof/internal/core"
	"osprof/internal/cycles"
	"osprof/internal/report"
	"osprof/internal/scenario"
	"osprof/internal/store"
)

// ScenarioResult wraps one scenario-matrix run (or any ad-hoc
// scenario.Spec) with generic machine-verifiable checks: the stack
// ran, the profiler recorded, latencies respect the probe floor, and —
// because each spec describes a fully isolated deterministic world —
// an immediate rerun reproduces the profiles byte for byte.
type ScenarioResult struct {
	Spec  scenario.Spec
	Stack *scenario.Stack

	// Err is a build/run failure (nil on success).
	Err error

	// Deterministic reports whether a second run of the same spec
	// reproduced the profile set and the simulated clock exactly.
	Deterministic bool

	// Reran reports whether the determinism rerun was performed
	// (RunScenario); RecordScenario runs once and skips that check.
	Reran bool

	// Elapsed is the simulated run length in cycles.
	Elapsed uint64
}

// RunScenario builds and runs spec twice, comparing the runs to verify
// determinism, and returns the first run wrapped in checks.
func RunScenario(spec scenario.Spec) *ScenarioResult {
	r := runScenarioOnce(spec)
	if r.Err != nil {
		return r
	}
	r.Reran = true
	second, err := scenario.RunSpec(spec)
	if err != nil {
		r.Err = fmt.Errorf("rerun: %w", err)
		return r
	}
	r.Deterministic = r.Stack.K.Now() == second.K.Now() &&
		sameSet(r.Stack.Set, second.Set)
	return r
}

// RecordScenario builds and runs spec once, for archival recording:
// determinism across recordings is already verified end to end by the
// archive's content addressing (identical worlds produce identical run
// IDs), so the in-process rerun would only double the recording cost.
func RecordScenario(spec scenario.Spec) *ScenarioResult {
	return runScenarioOnce(spec)
}

func runScenarioOnce(spec scenario.Spec) *ScenarioResult {
	r := &ScenarioResult{Spec: spec}
	first, err := scenario.RunSpec(spec)
	if err != nil {
		r.Err = err
		return r
	}
	r.Stack = first
	r.Elapsed = first.K.Now()
	return r
}

// errDetail renders an error for a check detail, empty when nil.
func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameSet compares two profile sets via the text exchange format.
func sameSet(a, b *core.Set) bool {
	var ba, bb bytes.Buffer
	if err := core.WriteSet(&ba, a); err != nil {
		return false
	}
	if err := core.WriteSet(&bb, b); err != nil {
		return false
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}

// ID implements Result.
func (r *ScenarioResult) ID() string { return r.Spec.Name }

// Checks implements Result.
func (r *ScenarioResult) Checks() []Check {
	var cs []Check
	cs = append(cs, check("scenario built and ran",
		r.Err == nil, "%s", errDetail(r.Err)))
	if r.Err != nil {
		return cs
	}
	set := r.Stack.Set
	cs = append(cs, check("simulated time advanced",
		r.Elapsed > 0, "elapsed=%s", cycles.Format(r.Elapsed)))
	cs = append(cs, check("profiler recorded operations",
		set.TotalOps() > 0, "ops=%d across %d operations", set.TotalOps(), set.Len()))
	cs = append(cs, check("profile set validates",
		set.Validate() == nil, "%s", errDetail(set.Validate())))

	// Full profiling's smallest observable latency is the ~40-cycle
	// TSC window between the probe reads (§5.2) — bucket 5. Traced
	// runs are exempt: layer self-times are subtractions (inclusive
	// minus children), not probe-pair measurements, so a thin layer
	// can legitimately land below the probe floor.
	if r.Spec.Instrument.Point == scenario.FSLevel && !r.Spec.Instrument.Sampled && !r.Spec.Trace {
		minBucket := 99
		for _, prof := range set.Profiles() {
			if prof.Count == 0 {
				continue
			}
			if lo, _, ok := prof.Range(); ok && lo < minBucket {
				minBucket = lo
			}
		}
		cs = append(cs, check("latencies respect the probe floor",
			minBucket >= 5 && minBucket < 99,
			"min bucket=%d (the ~40-cycle TSC window is bucket 5)", minBucket))
	}

	if r.Reran {
		cs = append(cs, check("deterministic rerun",
			r.Deterministic, "profiles and simulated clock must reproduce exactly"))
	}
	return cs
}

// ProfileSet implements runner.SetProvider: the captured profile set
// the runner archives (nil when the scenario failed to build or run).
func (r *ScenarioResult) ProfileSet() *core.Set {
	if r.Stack == nil {
		return nil
	}
	return r.Stack.Set
}

// RunMeta implements runner.MetaProvider with deterministic run
// descriptors for the archived envelope (no wall-clock values). A
// labeled Spec (a corpus variant) carries its label here — the
// metadata internal/classify groups archived runs by when it builds
// the reference corpus.
func (r *ScenarioResult) RunMeta() map[string]string {
	m := map[string]string{
		"scenario":  r.Spec.Name,
		"backend":   r.Spec.Backend.String(),
		"elapsed":   fmt.Sprintf("%d", r.Elapsed),
		"workloads": fmt.Sprintf("%d", len(r.Spec.Workloads)),
	}
	if r.Spec.Label != "" {
		m[store.LabelMetaKey] = r.Spec.Label
	}
	if r.Spec.Trace {
		m["traced"] = "true"
	}
	if r.Spec.LoadProfile && r.Stack != nil {
		// Per-band load occupancy in simulated cycles — deterministic,
		// and what `osprof load -realtime` weights band histograms by.
		m["loadprofile"] = "true"
		occ := r.Stack.K.LoadOccupancy()
		for b, c := range occ {
			m["loadocc:"+core.DimLoad.Values()[b]] = fmt.Sprintf("%d", c)
		}
	}
	return m
}

// Report implements Result.
func (r *ScenarioResult) Report(w io.Writer) {
	fmt.Fprintf(w, "=== scenario %s ===\n", r.Spec.Name)
	if r.Err != nil {
		fmt.Fprintf(w, "error: %v\n", r.Err)
		return
	}
	fmt.Fprintf(w, "backend=%s workloads=%d elapsed=%s\n",
		r.Spec.Backend, len(r.Spec.Workloads), cycles.Format(r.Elapsed))
	report.Set(w, r.Stack.Set, report.Options{})
}

// Scenarios returns the backend×workload matrix as runnable
// constructors keyed by scenario name, alongside the ordered name
// list. seed offsets every kernel and workload seed.
func Scenarios(seed int64) (map[string]func() Result, []string) {
	specs := scenario.Matrix(seed)
	reg := make(map[string]func() Result, len(specs))
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		reg[spec.Name] = func() Result { return RunScenario(spec) }
		ids = append(ids, spec.Name)
	}
	return reg, ids
}

// Recordables returns the archivable scenario registry — the
// backend×workload matrix, the kernel-configuration variants, and the
// load-contention cells — as single-run constructors keyed by name,
// with each spec's canonical fingerprint and the ordered name list.
// `osprof record`, `baseline`, and the `diff` regression gate all draw
// from it.
func Recordables(seed int64) (reg map[string]func() Result, fps map[string]string, ids []string) {
	specs := RecordableSpecs(seed)
	reg = make(map[string]func() Result, len(specs))
	fps = make(map[string]string, len(specs))
	ids = make([]string, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		reg[spec.Name] = func() Result { return RecordScenario(spec) }
		fps[spec.Name] = spec.Fingerprint()
		ids = append(ids, spec.Name)
	}
	return reg, fps, ids
}

// RecordableSpecs returns the recordable scenario specs themselves, in
// registry order. `osprof record -inject` needs spec-level access: a
// fault preset is applied to the selected specs before recording, so
// the degraded twin keeps the scenario's name (the watch layer matches
// ingests to baselines by name) while fingerprinting as its own world.
func RecordableSpecs(seed int64) []scenario.Spec {
	specs := append(scenario.Matrix(seed), scenario.Variants(seed)...)
	return append(specs, scenario.LoadCells(seed)...)
}

// Corpus returns the labeled subset of the recordable scenarios — the
// identification reference corpus (`osprof corpus build`) — as
// single-run constructors keyed by name, with each spec's fingerprint,
// its corpus label, and the ordered name list.
func Corpus(seed int64) (reg map[string]func() Result, fps, labels map[string]string, ids []string) {
	specs := scenario.Variants(seed)
	reg = make(map[string]func() Result, len(specs))
	fps = make(map[string]string, len(specs))
	labels = make(map[string]string, len(specs))
	for _, spec := range specs {
		if spec.Label == "" {
			continue
		}
		spec := spec
		reg[spec.Name] = func() Result { return RecordScenario(spec) }
		fps[spec.Name] = spec.Fingerprint()
		labels[spec.Name] = spec.Label
		ids = append(ids, spec.Name)
	}
	return reg, fps, labels, ids
}

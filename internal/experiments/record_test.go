package experiments

import (
	"strings"
	"testing"

	"osprof/internal/scenario"
)

func TestRecordablesRegistry(t *testing.T) {
	reg, fps, ids := Recordables(1)
	if len(reg) != len(ids) || len(fps) != len(ids) {
		t.Fatalf("registry sizes: reg=%d fps=%d ids=%d", len(reg), len(fps), len(ids))
	}
	// Matrix cells plus the kernel-config variants and load cells.
	wantLen := len(scenario.MatrixIDs()) + len(scenario.VariantIDs()) + len(scenario.LoadCellIDs())
	if len(ids) != wantLen {
		t.Errorf("%d recordables, want %d", len(ids), wantLen)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if reg[id] == nil {
			t.Errorf("%s: no constructor", id)
		}
		if len(fps[id]) != 64 {
			t.Errorf("%s: fingerprint %q", id, fps[id])
		}
		if seen[fps[id]] {
			t.Errorf("%s: fingerprint collides with another recordable", id)
		}
		seen[fps[id]] = true
	}
	if !strings.Contains(strings.Join(ids, " "), "fig3/preempt") {
		t.Errorf("variants missing from recordables: %v", ids)
	}
}

// RecordScenario runs once (no determinism rerun) but still carries
// the generic checks and exposes the profile set for archiving.
func TestRecordScenarioSingleRun(t *testing.T) {
	spec := scenario.Matrix(1)[0] // ext2/grep
	r := RecordScenario(spec)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Reran {
		t.Error("RecordScenario performed the determinism rerun")
	}
	for _, c := range r.Checks() {
		if c.Name == "deterministic rerun" {
			t.Error("single-run result claims a rerun check")
		}
		if !c.OK {
			t.Errorf("check failed: %s %s", c.Name, c.Text())
		}
	}
	set := r.ProfileSet()
	if set == nil || set.TotalOps() == 0 {
		t.Fatalf("no profile set exposed: %+v", set)
	}
	meta := r.RunMeta()
	if meta["scenario"] != spec.Name || meta["backend"] != "ext2" || meta["elapsed"] == "0" {
		t.Errorf("run meta: %v", meta)
	}

	// RunScenario still reruns and keeps the determinism check.
	full := RunScenario(spec)
	if !full.Reran || !full.Deterministic {
		t.Errorf("RunScenario rerun state: reran=%v deterministic=%v",
			full.Reran, full.Deterministic)
	}
	hasRerunCheck := false
	for _, c := range full.Checks() {
		if c.Name == "deterministic rerun" {
			hasRerunCheck = true
		}
	}
	if !hasRerunCheck {
		t.Error("RunScenario lost the determinism check")
	}
}

func TestRecordScenarioBuildFailure(t *testing.T) {
	r := RecordScenario(scenario.Spec{Name: "broken", Backend: scenario.Backend(99)})
	if r.Err == nil {
		t.Fatal("broken spec did not fail")
	}
	if r.ProfileSet() != nil {
		t.Error("failed scenario exposes a profile set")
	}
	checks := r.Checks()
	if len(checks) == 0 || checks[0].OK {
		t.Errorf("failure not reflected in checks: %+v", checks)
	}
}

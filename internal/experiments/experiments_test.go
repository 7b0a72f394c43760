package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// assertAllChecks runs a result's checks and fails the test with each
// failed invariant, printing the report for diagnosis.
func assertAllChecks(t *testing.T, r Result) {
	t.Helper()
	failures := Failures(r)
	if len(failures) == 0 {
		return
	}
	var buf bytes.Buffer
	r.Report(&buf)
	for _, c := range failures {
		t.Errorf("%s: %s — %s", r.ID(), c.Name, c.Text())
	}
	t.Logf("report:\n%s", buf.String())
}

func TestFig1CloneContention(t *testing.T) {
	assertAllChecks(t, RunFig1(Fig1Params{}))
}

func TestFig3PreemptionEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 runs 400k simulated requests")
	}
	assertAllChecks(t, RunFig3(Fig3Params{}))
}

func TestFig6LlseekContention(t *testing.T) {
	assertAllChecks(t, RunFig6(Fig6Params{}))
}

func TestFig7ReaddirPeaks(t *testing.T) {
	assertAllChecks(t, RunFig7(Fig7Params{}))
}

func TestFig8ValueCorrelation(t *testing.T) {
	assertAllChecks(t, RunFig8(Fig8Params{}))
}

func TestFig9TimelineProfiles(t *testing.T) {
	assertAllChecks(t, RunFig9(Fig9Params{}))
}

func TestFig10CIFSProfiles(t *testing.T) {
	assertAllChecks(t, RunFig10(Fig10Params{}))
}

func TestFig11DelayedAck(t *testing.T) {
	assertAllChecks(t, RunFig11(Fig11Params{}))
}

func TestEvalMemory(t *testing.T) {
	assertAllChecks(t, RunEvalMemory())
}

func TestEvalOverheadDecomposition(t *testing.T) {
	assertAllChecks(t, RunEvalOverhead(EvalOverheadParams{}))
}

func TestEvalAnalysisAccuracy(t *testing.T) {
	assertAllChecks(t, RunEvalAccuracy(EvalAccuracyParams{}))
}

func TestEvalBucketLocking(t *testing.T) {
	assertAllChecks(t, RunEvalLocking(EvalLockingParams{}))
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"eval-memory", "eval-overhead", "eval-accuracy", "eval-locking",
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(IDs()), len(want))
	}
}

func TestReportsNonEmpty(t *testing.T) {
	// Light-weight experiments only; the heavy ones are covered above.
	for _, id := range []string{"eval-memory", "eval-locking"} {
		r := Registry[id]()
		var buf bytes.Buffer
		r.Report(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s produced an empty report", id)
		}
		var checks bytes.Buffer
		WriteChecks(&checks, r)
		if !strings.Contains(checks.String(), "PASS") {
			t.Errorf("%s check rendering broken:\n%s", id, checks.String())
		}
	}
}

func TestEq3KnownValues(t *testing.T) {
	// Y=0: the probability is just t_cpu/t_period.
	if got := Eq3(512, 1024, 1<<20, 0); got != 0.5 {
		t.Errorf("Eq3(Y=0) = %g, want 0.5", got)
	}
	// Larger quantum means fewer preemptions.
	if Eq3(512, 1024, 1<<26, 0.01) >= Eq3(512, 1024, 1<<16, 0.01) {
		t.Error("Eq3 not declining with quantum")
	}
}

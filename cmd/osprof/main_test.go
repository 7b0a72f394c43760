package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"osprof/internal/runner"
)

// exec runs the CLI and returns exit code, stdout and stderr.
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListContainsAllExperiments(t *testing.T) {
	code, out, _ := exec(t, "list")
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	for _, id := range []string{"fig1", "fig11", "eval-locking"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %q:\n%s", id, out)
		}
	}
}

func TestChecksLightExperiments(t *testing.T) {
	code, out, errOut := exec(t, "checks", "eval-memory", "eval-locking")
	if code != 0 {
		t.Fatalf("exit=%d, want 0; stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "### eval-memory") || !strings.Contains(out, "### eval-locking") {
		t.Errorf("missing experiment headers:\n%s", out)
	}
	if !strings.Contains(out, "[PASS]") {
		t.Errorf("no passing checks rendered:\n%s", out)
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("unexpected failed check:\n%s", out)
	}
}

func TestRunPrintsReport(t *testing.T) {
	code, out, _ := exec(t, "run", "eval-memory")
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	if !strings.Contains(out, "memory usage") {
		t.Errorf("run did not print the report:\n%s", out)
	}
}

func TestUnknownExperimentExitsUsage(t *testing.T) {
	code, _, errOut := exec(t, "checks", "fig99")
	if code != 2 {
		t.Fatalf("exit=%d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr missing diagnosis: %s", errOut)
	}
}

func TestNoArgsUsage(t *testing.T) {
	if code, _, _ := exec(t); code != 2 {
		t.Errorf("exit=%d, want 2", code)
	}
	if code, _, _ := exec(t, "frobnicate"); code != 2 {
		t.Errorf("unknown subcommand exit=%d, want 2", code)
	}
}

// `run all fig1` used to treat "all" as an unknown experiment because
// the expansion only fired when it was the sole argument; it must
// expand anywhere and duplicates must collapse.
func TestAllExpandsAnywhereAndDedupes(t *testing.T) {
	if got := expand([]string{"all", "fig1"}, []string{"fig1", "fig3"}); len(got) != 2 {
		t.Errorf("expand(all, fig1) = %v, want [fig1 fig3]", got)
	}
	if got := expand([]string{"fig3", "fig3", "fig1"}, []string{"fig1", "fig3"}); len(got) != 2 {
		t.Errorf("expand dedup = %v, want [fig3 fig1]", got)
	}
	if got := expand(nil, []string{"a", "b"}); len(got) != 2 {
		t.Errorf("expand(nil) = %v, want all", got)
	}
	// End-to-end: the duplicated id runs once.
	_, out, _ := exec(t, "checks", "eval-locking", "eval-locking")
	if n := strings.Count(out, "### eval-locking"); n != 1 {
		t.Errorf("duplicated id ran %d times, want 1", n)
	}
}

func TestFlagsAfterPositionals(t *testing.T) {
	code, out, _ := exec(t, "checks", "eval-memory", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	if !strings.Contains(out, "### eval-memory") {
		t.Errorf("trailing -parallel flag not honored:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := exec(t, "checks", "eval-memory", "-json")
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	var results []runner.RunResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].ID != "eval-memory" || results[0].Failed != 0 {
		t.Errorf("unexpected results: %+v", results)
	}
	if len(results[0].Checks) == 0 {
		t.Error("JSON results carry no checks")
	}
}

func TestScenariosListAndSubset(t *testing.T) {
	code, out, _ := exec(t, "scenarios", "list")
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	if !strings.Contains(out, "ext2/grep") || !strings.Contains(out, "cifs/readzero") {
		t.Errorf("scenario list incomplete:\n%s", out)
	}

	code, out, errOut := exec(t, "scenarios", "ext2/walk", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit=%d, want 0; stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "### ext2/walk") || strings.Contains(out, "[FAIL]") {
		t.Errorf("scenario run broken:\n%s", out)
	}

	if code, _, _ = exec(t, "scenarios", "ext9/grep"); code != 2 {
		t.Errorf("unknown scenario exit=%d, want 2", code)
	}
}

// Parallel and serial runs must produce identical check verdicts: each
// experiment is an isolated deterministic simulation. Figures a check
// measured on the host (Check.Measured) vary between any two runs and
// are left out of the comparison; Name, OK and Detail must match.
func TestParallelVerdictsMatchSerial(t *testing.T) {
	ids := []string{"eval-memory", "eval-locking", "fig7", "fig8"}
	serial := append([]string{"checks", "-json"}, ids...)
	parallel := append([]string{"checks", "-json", "-parallel", "4"}, ids...)

	codeS, outS, _ := exec(t, serial...)
	codeP, outP, _ := exec(t, parallel...)
	if codeS != codeP {
		t.Fatalf("exit codes differ: serial=%d parallel=%d", codeS, codeP)
	}
	var rs, rp []runner.RunResult
	if err := json.Unmarshal([]byte(outS), &rs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(outP), &rp); err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(rp) {
		t.Fatalf("result counts differ: %d vs %d", len(rs), len(rp))
	}
	for i := range rs {
		if rs[i].ID != rp[i].ID {
			t.Errorf("order differs at %d: %s vs %s", i, rs[i].ID, rp[i].ID)
		}
		if len(rs[i].Checks) != len(rp[i].Checks) {
			t.Errorf("%s: check counts differ", rs[i].ID)
			continue
		}
		for j := range rs[i].Checks {
			a, b := rs[i].Checks[j], rp[i].Checks[j]
			if a.Name != b.Name || a.OK != b.OK || a.Detail != b.Detail {
				t.Errorf("%s: check %d differs: %+v vs %+v", rs[i].ID, j, a, b)
			}
		}
	}
}

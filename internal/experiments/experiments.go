// Package experiments reproduces every figure and evaluation number of
// the paper. Each experiment returns a structured result with:
//
//   - Checks: machine-verifiable invariants asserting the paper's
//     qualitative claims (who wins, where peaks fall, what disappears
//     under a control condition),
//   - Report: paper-style textual output (profiles rendered like the
//     figures, tables of the quoted numbers).
//
// Absolute values come from the simulated substrate, so EXPERIMENTS.md
// compares shapes, not raw cycle counts, against the paper.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Check is one verified invariant.
type Check struct {
	Name string
	OK   bool

	// Detail explains the verdict. It is deterministic: the same code
	// and inputs always produce the same Detail.
	Detail string

	// Measured carries the figures a check read off the host (real
	// goroutines racing), which differ from run to run. Empty for
	// checks over simulated work.
	Measured string `json:",omitempty"`
}

// Text is the check's one-line explanation: Detail, preceded by the
// measured figures when there are any.
func (c Check) Text() string {
	if c.Measured == "" {
		return c.Detail
	}
	return c.Measured + " (" + c.Detail + ")"
}

// Result is implemented by every experiment outcome.
type Result interface {
	// ID names the experiment ("fig1", "eval-overhead", ...).
	ID() string

	// Checks returns the invariant verdicts.
	Checks() []Check

	// Report writes the paper-style output.
	Report(w io.Writer)
}

// Failures filters the failed checks of a result.
func Failures(r Result) []Check {
	var out []Check
	for _, c := range r.Checks() {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// check is a small builder helper.
func check(name string, ok bool, format string, args ...any) Check {
	return Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// Registry maps experiment IDs to constructors at default (test) scale.
var Registry = map[string]func() Result{
	"fig1":          func() Result { return RunFig1(Fig1Params{}) },
	"fig3":          func() Result { return RunFig3(Fig3Params{}) },
	"fig6":          func() Result { return RunFig6(Fig6Params{}) },
	"fig7":          func() Result { return RunFig7(Fig7Params{}) },
	"fig8":          func() Result { return RunFig8(Fig8Params{}) },
	"fig9":          func() Result { return RunFig9(Fig9Params{}) },
	"fig10":         func() Result { return RunFig10(Fig10Params{}) },
	"fig11":         func() Result { return RunFig11(Fig11Params{}) },
	"eval-memory":   func() Result { return RunEvalMemory() },
	"eval-overhead": func() Result { return RunEvalOverhead(EvalOverheadParams{}) },
	"eval-accuracy": func() Result { return RunEvalAccuracy(EvalAccuracyParams{}) },
	"eval-locking":  func() Result { return RunEvalLocking(EvalLockingParams{}) },
}

// IDs returns the registry keys in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// WriteChecks renders the verdicts of a result.
func WriteChecks(w io.Writer, r Result) { WriteCheckList(w, r.Checks()) }

// WriteCheckList renders check verdicts in the canonical format; the
// CLI and WriteChecks share it so the rendering cannot drift.
func WriteCheckList(w io.Writer, checks []Check) {
	for _, c := range checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-40s %s\n", status, c.Name, c.Text())
	}
}

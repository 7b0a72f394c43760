// Package diff is the differential analysis engine: it turns the
// paper's interactive workflow — render two profiles, eyeball which
// peaks moved (§3.2, §5) — into machine-checkable verdicts over
// archived runs. Built on analysis.Selector (three-phase selection,
// peak structure, Earth Mover's Distance), it classifies every
// operation of two runs as unchanged, shifted-peak, new-peak,
// lost-peak, reshaped, new-op, or missing-op, so a CI gate can assert
// "this kernel-config change shifted nothing" the way the paper's
// authors compared OS versions by hand.
package diff

import (
	"fmt"
	"sort"

	"osprof/internal/analysis"
	"osprof/internal/core"
	"osprof/internal/summary"
)

// Schema versions the JSON shape of Report and MatrixReport so
// downstream tooling can rely on it.
const Schema = "osprof-diff/v1"

// Verdict classifies one operation's change between two runs.
type Verdict string

const (
	// Unchanged: the pair was either filtered in phase 1 (small share
	// or similar totals with identical peak structure) or scored below
	// the selector threshold with no structural change.
	Unchanged Verdict = "unchanged"

	// ShiftedPeak: a matched peak's mode bucket moved — the §5
	// "operation got slower/faster by a latency class" signature.
	ShiftedPeak Verdict = "shifted-peak"

	// NewPeak: run B shows more peaks than run A (a new latency mode
	// appeared, e.g. preemption or lock contention).
	NewPeak Verdict = "new-peak"

	// LostPeak: run B shows fewer peaks than run A (a latency mode
	// disappeared, e.g. a fixed contention source).
	LostPeak Verdict = "lost-peak"

	// Reshaped: same peak structure but the distribution's mass moved
	// enough to score over the selector threshold.
	Reshaped Verdict = "reshaped"

	// NewOp: the operation appears only in run B.
	NewOp Verdict = "new-op"

	// MissingOp: the operation appears only in run A.
	MissingOp Verdict = "missing-op"
)

// Changed reports whether the verdict flags a difference.
func (v Verdict) Changed() bool { return v != Unchanged }

// OpDiff is the differential verdict for one operation.
type OpDiff struct {
	Op      string  `json:"op"`
	Verdict Verdict `json:"verdict"`

	// Score is the selector's phase-3 rating (EMD by default); for
	// one-sided operations it is computed against an empty profile
	// (EMD's maximal 1).
	Score float64 `json:"score"`

	CountA uint64 `json:"count_a"`
	CountB uint64 `json:"count_b"`
	TotalA uint64 `json:"total_a"`
	TotalB uint64 `json:"total_b"`
	PeaksA int    `json:"peaks_a"`
	PeaksB int    `json:"peaks_b"`

	// ModeShifts lists per-matched-peak mode-bucket movement (B - A).
	ModeShifts []int `json:"mode_shifts,omitempty"`

	// Detail is a human-readable explanation of the verdict.
	Detail string `json:"detail,omitempty"`
}

// Report is the pairwise differential analysis of two runs.
type Report struct {
	Schema string `json:"schema"`

	NameA string `json:"a"`
	NameB string `json:"b"`

	FingerprintA string `json:"fingerprint_a,omitempty"`
	FingerprintB string `json:"fingerprint_b,omitempty"`

	// Ops holds one verdict per operation in the union of the two
	// runs, most severe (highest score) first, unchanged last.
	Ops []OpDiff `json:"ops"`

	// Changed counts the operations whose verdict flags a difference.
	Changed int `json:"changed"`

	// Layers attributes each changed traced operation to the layer
	// whose decomposed latency moved (internal/trace op@layer
	// profiles). Absent entirely for untraced runs, so their JSON
	// reports are byte-identical to the pre-trace schema.
	Layers []LayerMove `json:"layers,omitempty"`

	// Loads attributes each changed load-profiled operation to the
	// load band where it moved (internal/load op@load:band profiles).
	// Absent entirely for unconditioned runs, keeping their JSON
	// byte-identical to the pre-load schema.
	Loads []LoadMove `json:"loads,omitempty"`
}

// Regression reports whether any operation changed.
func (r *Report) Regression() bool { return r.Changed > 0 }

// ChangedOps returns the flagged operations.
func (r *Report) ChangedOps() []OpDiff {
	var out []OpDiff
	for _, d := range r.Ops {
		if d.Verdict.Changed() {
			out = append(out, d)
		}
	}
	return out
}

func mean(total, count uint64) uint64 {
	if count == 0 {
		return 0
	}
	return total / count
}

// Engine performs differential analyses. It carries a Selector (with
// its reusable comparison scratch), so create one and reuse it; an
// Engine must not be used from multiple goroutines concurrently.
type Engine struct {
	// Selector is the three-phase pair analysis configuration.
	Selector *analysis.Selector

	// Guard enables the summary-first fast path: when positive, Sets
	// first compares the two sets' alloc-free summary digests and
	// skips the full selector entirely when every operation pair is
	// summary-close — identical histograms, or same structure (mode,
	// span, filled buckets) with every sampled quantile within Guard
	// fractional buckets (summary.WithinGuard). Any operation outside
	// the band escalates the WHOLE pair to the full analysis, so every
	// escalated verdict is bit-identical to the always-full path. The
	// zero value (New) disables the fast path.
	Guard float64

	// sumA, sumB are the fast path's reusable summary scratch.
	sumA, sumB summary.SetSummary
}

// New returns an engine with the repository's default selector (EMD,
// the paper's recommended metric) and no summary fast path.
func New() *Engine {
	return &Engine{Selector: analysis.DefaultSelector()}
}

// NewSummaryFirst returns an engine that screens every pair with the
// calibrated summary guard band before running the full differential
// analysis — the service and bench configuration. The parity tests pin
// its verdicts against New across the scenario matrix, fault corpus
// included.
func NewSummaryFirst() *Engine {
	return &Engine{Selector: analysis.DefaultSelector(), Guard: summary.DefaultGuard}
}

// Sets runs the differential analysis over two profile sets.
func (e *Engine) Sets(a, b *core.Set) *Report {
	if e.Guard > 0 {
		if rep, ok := e.summaryFast(a, b); ok {
			return rep
		}
	}
	rep := &Report{Schema: Schema, NameA: a.Name, NameB: b.Name}
	for _, pr := range e.Selector.Compare(a, b) {
		d := e.classify(pr)
		rep.Ops = append(rep.Ops, d)
		if d.Verdict.Changed() {
			rep.Changed++
		}
	}
	// Re-rank after classification: one-sided ops enter the selector's
	// ordering as phase-1 skips (score 0) but classify rewrites their
	// score and verdict, so the selector's sort no longer holds.
	sort.SliceStable(rep.Ops, func(i, j int) bool {
		x, y := rep.Ops[i], rep.Ops[j]
		if x.Verdict.Changed() != y.Verdict.Changed() {
			return x.Verdict.Changed()
		}
		if x.Score != y.Score {
			return x.Score > y.Score
		}
		return x.Op < y.Op
	})
	groups := groupDerived(rep.Ops)
	rep.Layers = layerMoves(groups)
	rep.Loads = loadMoves(groups)
	return rep
}

// Runs is Sets over archived run envelopes, carrying the fingerprints
// into the report so a reader can tell which configurations were
// compared.
func (e *Engine) Runs(a, b *core.Run) *Report {
	rep := e.Sets(a.Set, b.Set)
	rep.FingerprintA = a.Fingerprint
	rep.FingerprintB = b.Fingerprint
	return rep
}

// classify converts one selector pair report into a verdict. The
// analysis.PairReport is backed by the Selector's scratch buffers, so
// everything retained (ModeShifts) is copied out.
func (e *Engine) classify(r analysis.PairReport) OpDiff {
	d := OpDiff{
		Op:     r.Op,
		Score:  r.Score,
		CountA: r.A.Count, CountB: r.B.Count,
		TotalA: r.A.Total, TotalB: r.B.Total,
		PeaksA: len(r.PeaksA), PeaksB: len(r.PeaksB),
	}
	switch {
	case r.A.Count == 0 && r.B.Count > 0:
		d.Verdict = NewOp
		d.Score = analysis.Score(e.Selector.Method, r.A, r.B)
		d.Detail = fmt.Sprintf("only in B (%d ops)", r.B.Count)
	case r.B.Count == 0 && r.A.Count > 0:
		d.Verdict = MissingOp
		d.Score = analysis.Score(e.Selector.Method, r.A, r.B)
		d.Detail = fmt.Sprintf("only in A (%d ops)", r.A.Count)
	case r.Skipped || !r.Interesting:
		d.Verdict = Unchanged
		d.Detail = r.Reason
	case moved(r.Diff.Moved):
		d.Verdict = ShiftedPeak
		d.ModeShifts = append([]int(nil), r.Diff.Moved...)
		d.Detail = fmt.Sprintf("mode shifts %v", d.ModeShifts)
	case r.Diff.NewPeaks > 0:
		d.Verdict = NewPeak
		d.Detail = fmt.Sprintf("+%d peaks", r.Diff.NewPeaks)
	case r.Diff.LostPeaks > 0:
		d.Verdict = LostPeak
		d.Detail = fmt.Sprintf("-%d peaks", r.Diff.LostPeaks)
	default:
		d.Verdict = Reshaped
		d.Detail = fmt.Sprintf("score %.3g over threshold", r.Score)
	}
	return d
}

// summaryFast is the summary-first screen: extract both sets' digests
// (alloc-free after warmup) and, when every operation pair sits inside
// the guard band, emit an all-unchanged report without touching the
// selector. ok is false when anything — a one-sided operation, a
// resolution mismatch, any structural or quantile movement — requires
// the full analysis; the caller then runs the always-full path, so a
// fast-path miss costs one cheap digest walk, never a wrong verdict.
func (e *Engine) summaryFast(a, b *core.Set) (*Report, bool) {
	if a == nil || b == nil || a.R != b.R {
		return nil, false
	}
	e.sumA.From(a, 0)
	e.sumB.From(b, 0)
	sa, sb := e.sumA.Ops, e.sumB.Ops

	// Pass 1: every union operation must be within the guard band. An
	// op present on one side only passes only when empty on the other
	// (the selector's own "recorded zero times" skip); mass against
	// absence is new-op/missing-op and escalates.
	i, j := 0, 0
	for i < len(sa) || j < len(sb) {
		switch {
		case j >= len(sb) || (i < len(sa) && sa[i].Op < sb[j].Op):
			if sa[i].Count > 0 {
				return nil, false
			}
			i++
		case i >= len(sa) || sb[j].Op < sa[i].Op:
			if sb[j].Count > 0 {
				return nil, false
			}
			j++
		default:
			if !summary.WithinGuard(sa[i], sb[j], e.Guard) {
				return nil, false
			}
			i++
			j++
		}
	}

	// Pass 2: everything within the band — emit the all-unchanged
	// report (op order is sorted; with no changed ops the full path's
	// ranking degenerates to the same order for summary-equal rows).
	rep := &Report{Schema: Schema, NameA: a.Name, NameB: b.Name}
	row := func(x, y *summary.Summary) {
		d := OpDiff{Verdict: Unchanged, Detail: "summaries within guard band"}
		if x != nil {
			d.Op, d.CountA, d.TotalA = x.Op, x.Count, x.Total
		}
		if y != nil {
			d.Op, d.CountB, d.TotalB = y.Op, y.Count, y.Total
		}
		rep.Ops = append(rep.Ops, d)
	}
	i, j = 0, 0
	for i < len(sa) || j < len(sb) {
		switch {
		case j >= len(sb) || (i < len(sa) && sa[i].Op < sb[j].Op):
			row(&sa[i], nil)
			i++
		case i >= len(sa) || sb[j].Op < sa[i].Op:
			row(nil, &sb[j])
			j++
		default:
			row(&sa[i], &sb[j])
			i++
			j++
		}
	}
	return rep, true
}

func moved(shifts []int) bool {
	for _, m := range shifts {
		if m != 0 {
			return true
		}
	}
	return false
}

// Pair names one matched run pair of a matrix diff.
type Pair struct {
	Name string `json:"name"`
	*Report
}

// MatrixReport is the matrix-wide differential analysis: every run of
// side A held against the like-named run of side B (the paper's table
// of OS-version comparisons across a whole scenario matrix).
type MatrixReport struct {
	Schema string `json:"schema"`

	// Pairs holds one pairwise report per matched run name, in side-A
	// order.
	Pairs []Pair `json:"pairs"`

	// OnlyA and OnlyB list run names present on a single side.
	OnlyA []string `json:"only_a,omitempty"`
	OnlyB []string `json:"only_b,omitempty"`

	// Changed counts changed operations across all matched pairs;
	// unmatched runs count as one change each.
	Changed int `json:"changed"`
}

// Regression reports whether anything changed anywhere in the matrix.
func (m *MatrixReport) Regression() bool { return m.Changed > 0 }

// Matrix diffs two run slices pairwise, matching runs by set name.
func (e *Engine) Matrix(as, bs []*core.Run) *MatrixReport {
	m := &MatrixReport{Schema: Schema}
	byName := make(map[string]*core.Run, len(bs))
	for _, b := range bs {
		byName[b.Name()] = b
	}
	matched := make(map[string]bool, len(as))
	for _, a := range as {
		b, ok := byName[a.Name()]
		if !ok {
			m.OnlyA = append(m.OnlyA, a.Name())
			m.Changed++
			continue
		}
		matched[a.Name()] = true
		rep := e.Runs(a, b)
		m.Pairs = append(m.Pairs, Pair{Name: a.Name(), Report: rep})
		m.Changed += rep.Changed
	}
	for _, b := range bs {
		if !matched[b.Name()] {
			m.OnlyB = append(m.OnlyB, b.Name())
			m.Changed++
		}
	}
	return m
}

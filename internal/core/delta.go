package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the incremental ("delta") run envelope and the
// histogram-merge operator over envelopes. A long-lived recorder's
// cumulative profile only grows, so after the first export every later
// export repeats almost all of its bytes; at fleet scale that is the
// difference between shipping O(new counts) and O(history) per report
// interval. A delta carries only the buckets that changed since the
// session's previous export, numbered by its position in the session's
// chain, and applying the chain in order onto an empty run rebuilds
// the full envelope byte-for-byte.
//
// Format:
//
//	osprof-run-delta v1 fingerprint=<hex> seq=<n>
//	meta <key> <value>
//	...
//	osprof-set-delta v1 <name> r=<r>
//	op <name> count=<dn> total=<dn> min=<n> max=<n>
//	b <bucket> <dcount>
//	...
//	end
//
// The set block reuses the osprof-set grammar under its own header
// keyword: bucket lines and the count/total fields are INCREMENTS
// since the previous export, while min and max are the cumulative
// absolutes at export time (extremes are not additive, but the
// cumulative min only ever decreases and the max only ever increases,
// so folding the absolutes in is exact). The meta lines carry the
// session's full current metadata — it is tiny, and shipping it whole
// keeps chain replay byte-identical even when a value is rewritten
// mid-session.

const (
	deltaHeader    = "osprof-run-delta v1"
	deltaSetHeader = "osprof-set-delta v1"
)

// Delta is one incremental export: the changes a session accumulated
// since its previous export.
type Delta struct {
	// Fingerprint identifies the producing configuration; a delta can
	// only apply to a run with the same fingerprint.
	Fingerprint string

	// Seq is the 1-based position in the session's delta chain. A
	// receiver applies deltas strictly in sequence; seq 1 restarts the
	// chain (a new session of the same configuration).
	Seq int

	// Meta is the session's full current metadata (not a diff).
	Meta map[string]string

	// Set holds the increments: bucket counts, Count and Total are
	// deltas since the previous export, Min and Max are the cumulative
	// absolutes. An operation appears iff it changed — or is new since
	// the previous export, so that replay reproduces op creation order.
	Set *Set
}

// Name returns the delta's set name.
func (d *Delta) Name() string {
	if d.Set == nil {
		return ""
	}
	return d.Set.Name
}

// DeltaOf computes the delta from prev to cur: the increments a
// receiver must apply to prev's state to reach cur's. prev may be nil
// (the chain's first export, everything is new). The two runs must
// agree on fingerprint, set name, and resolution, and cur must be a
// superset of prev (counters never shrink on a live recorder); any
// violation is an error, not a best-effort diff.
func DeltaOf(prev, cur *Run, seq int) (*Delta, error) {
	if cur == nil || cur.Set == nil {
		return nil, fmt.Errorf("osprof: delta: nil current run")
	}
	if seq < 1 {
		return nil, fmt.Errorf("osprof: delta: seq %d < 1", seq)
	}
	d := &Delta{
		Fingerprint: cur.Fingerprint,
		Seq:         seq,
		Meta:        cloneMeta(cur.Meta),
		Set:         NewSetR(cur.Set.Name, cur.Set.R),
	}
	var prevSet *Set
	if prev != nil {
		if prev.Fingerprint != cur.Fingerprint {
			return nil, fmt.Errorf("osprof: delta: fingerprint changed %.12s != %.12s",
				prev.Fingerprint, cur.Fingerprint)
		}
		if prev.Set == nil {
			return nil, fmt.Errorf("osprof: delta: previous run has no set")
		}
		if prev.Set.Name != cur.Set.Name {
			return nil, fmt.Errorf("osprof: delta: set name changed %q != %q",
				prev.Set.Name, cur.Set.Name)
		}
		if prev.Set.R != cur.Set.R {
			return nil, fmt.Errorf("osprof: delta: resolution changed %d != %d",
				prev.Set.R, cur.Set.R)
		}
		prevSet = prev.Set
	}
	// The order slice is iterated directly (not via the copying Ops
	// accessor): DeltaOf runs once per report interval per recorder,
	// and its cost must scale with the CHANGED ops, not with history.
	for _, op := range cur.Set.order {
		cp := cur.Set.Lookup(op)
		var pp *Profile
		if prevSet != nil {
			pp = prevSet.Lookup(op)
		}
		dp, changed, err := profileDelta(pp, cp)
		if err != nil {
			return nil, err
		}
		// A new-but-empty operation (materialized, never recorded)
		// still rides once, so replay reproduces op creation order.
		if changed || pp == nil {
			*d.Set.Get(op) = *dp
		}
	}
	return d, nil
}

// profileDelta computes cur - prev for one operation (prev nil = all
// of cur is new). changed is false when no counter moved. Validation
// and change detection run before any allocation, so an unchanged op
// — the overwhelming case in a wide set at fleet report rate — costs
// one bucket scan and nothing else.
func profileDelta(prev, cur *Profile) (*Profile, bool, error) {
	if prev == nil {
		d := NewProfileR(cur.Op, cur.R)
		*d = *cur.Clone()
		return d, cur.Count > 0, nil
	}
	if prev.R != cur.R {
		return nil, false, fmt.Errorf("osprof: delta %q: resolution mismatch %d != %d",
			cur.Op, prev.R, cur.R)
	}
	changed := false
	for i, c := range cur.Buckets {
		if c < prev.Buckets[i] {
			return nil, false, fmt.Errorf("osprof: delta %q: bucket %d shrank %d -> %d (not a delta chain)",
				cur.Op, i, prev.Buckets[i], c)
		}
		changed = changed || c != prev.Buckets[i]
	}
	if cur.Count < prev.Count || cur.Total < prev.Total {
		return nil, false, fmt.Errorf("osprof: delta %q: counters shrank (not a delta chain)", cur.Op)
	}
	changed = changed || cur.Count != prev.Count || cur.Total != prev.Total ||
		cur.Min != prev.Min || cur.Max != prev.Max
	if !changed {
		return nil, false, nil
	}
	d := NewProfileR(cur.Op, cur.R)
	for i, c := range cur.Buckets {
		d.Buckets[i] = c - prev.Buckets[i]
	}
	d.Count = cur.Count - prev.Count
	d.Total = cur.Total - prev.Total
	d.Min, d.Max = cur.Min, cur.Max
	return d, true, nil
}

// Apply folds the delta into run, mutating it toward the state the
// producing session exported. The run adopts the delta's fingerprint
// and set name when still empty (the chain's first delta); otherwise
// they must match. Apply is transactional: resolution mismatches and
// counter overflows are detected before any state changes.
func (r *Run) Apply(d *Delta) error {
	if d == nil || d.Set == nil {
		return fmt.Errorf("osprof: apply: nil delta")
	}
	if r.Set == nil {
		r.Set = NewSetR(d.Set.Name, d.Set.R)
		r.Fingerprint = d.Fingerprint
	}
	if r.Fingerprint != d.Fingerprint {
		return fmt.Errorf("osprof: apply: fingerprint mismatch %.12s != %.12s",
			r.Fingerprint, d.Fingerprint)
	}
	if r.Set.Name != d.Set.Name {
		return fmt.Errorf("osprof: apply: set name mismatch %q != %q", r.Set.Name, d.Set.Name)
	}
	if r.Set.R != d.Set.R {
		return fmt.Errorf("osprof: apply: resolution mismatch %d != %d", r.Set.R, d.Set.R)
	}
	// Verify every addition before applying any (the receiver may be a
	// server-side accumulator; a bad delta must not corrupt it). The
	// order slices are iterated directly, not through the copying Ops
	// accessor: one delta per report interval per recorder makes Apply
	// a hot path that must stay allocation-free in the steady state.
	for _, op := range d.Set.order {
		dp := d.Set.Lookup(op)
		if p := r.Set.Lookup(op); p != nil {
			if err := p.checkMerge(dp); err != nil {
				return fmt.Errorf("osprof: apply: %w", err)
			}
		}
	}
	for _, op := range d.Set.order {
		dp := d.Set.Lookup(op)
		p := r.Set.Get(op)
		for i, c := range dp.Buckets {
			p.Buckets[i] += c
		}
		if dp.Count > 0 {
			// Min/Max ride as cumulative absolutes: fold them in.
			if p.Count == 0 || dp.Min < p.Min {
				p.Min = dp.Min
			}
			if dp.Max > p.Max {
				p.Max = dp.Max
			}
		}
		p.Count += dp.Count
		p.Total += dp.Total
	}
	applyMeta(&r.Meta, d.Meta)
	return nil
}

// applyMeta makes dst's contents equal src without allocating a new
// map in the steady state (the server applies one delta per report
// interval per recorder — the hot path).
func applyMeta(dst *map[string]string, src map[string]string) {
	if *dst == nil {
		*dst = cloneMeta(src)
		return
	}
	for k := range *dst {
		if _, ok := src[k]; !ok {
			delete(*dst, k)
		}
	}
	for k, v := range src {
		(*dst)[k] = v
	}
}

// cloneMeta copies a metadata map (nil stays nil).
func cloneMeta(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// MergeRun folds src's histograms into dst: the envelope-level merge
// operator (combining per-node runs of the same configuration, §3.4's
// per-CPU merge lifted to whole envelopes). The envelopes must agree
// on fingerprint and resolution; metadata is united with src winning
// conflicts. Set-level resolution mismatch and counter overflow are
// detected before dst changes.
func MergeRun(dst, src *Run) error {
	if src == nil || src.Set == nil {
		return fmt.Errorf("osprof: merge: nil source run")
	}
	if dst.Set == nil {
		dst.Set = NewSetR(src.Set.Name, src.Set.R)
		dst.Fingerprint = src.Fingerprint
	}
	if dst.Fingerprint != src.Fingerprint {
		return fmt.Errorf("osprof: merge: fingerprint mismatch %.12s != %.12s",
			dst.Fingerprint, src.Fingerprint)
	}
	if dst.Set.R != src.Set.R {
		return fmt.Errorf("osprof: merge: resolution mismatch %d != %d", dst.Set.R, src.Set.R)
	}
	for _, op := range src.Set.Ops() {
		sp := src.Set.Lookup(op)
		if p := dst.Set.Lookup(op); p != nil {
			if err := p.checkMerge(sp); err != nil {
				return fmt.Errorf("osprof: merge: %w", err)
			}
		}
	}
	for _, op := range src.Set.Ops() {
		// The pre-check above makes this Merge infallible.
		_ = dst.Set.Get(op).Merge(src.Set.Lookup(op))
	}
	if len(src.Meta) > 0 && dst.Meta == nil {
		dst.Meta = make(map[string]string, len(src.Meta))
	}
	for k, v := range src.Meta {
		dst.Meta[k] = v
	}
	return nil
}

// WriteDelta serializes the delta envelope to w.
func WriteDelta(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s fingerprint=%q seq=%d\n", deltaHeader, d.Fingerprint, d.Seq)
	writeMeta(bw, d.Meta)
	writeSetAs(bw, d.Set, deltaSetHeader)
	return bw.Flush()
}

// ReadDelta parses a delta envelope serialized by WriteDelta.
func ReadDelta(r io.Reader) (*Delta, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("osprof: empty input")
	}
	lineno := 1
	d, err := readDeltaBody(sc.Text(), sc, &lineno)
	if err != nil {
		return nil, err
	}
	return d, rejectTrailing(sc, &lineno)
}

// readDeltaBody parses one delta envelope whose header line has
// already been scanned, consuming lines through its "end" marker.
func readDeltaBody(line string, sc *bufio.Scanner, lineno *int) (*Delta, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, deltaHeader+" "))
	if !strings.HasPrefix(rest, "fingerprint=") {
		return nil, fmt.Errorf("osprof: delta header missing fingerprint: %q", line)
	}
	fp, trailing, err := parseQuoted(strings.TrimPrefix(rest, "fingerprint="))
	if err != nil {
		return nil, fmt.Errorf("osprof: delta header: %w", err)
	}
	seqField := strings.TrimSpace(trailing)
	if !strings.HasPrefix(seqField, "seq=") {
		return nil, fmt.Errorf("osprof: delta header missing seq: %q", line)
	}
	seq, err := strconv.Atoi(strings.TrimPrefix(seqField, "seq="))
	if err != nil || seq < 1 {
		return nil, fmt.Errorf("osprof: delta header bad seq %q", seqField)
	}
	d := &Delta{Fingerprint: fp, Seq: seq}
	meta, next, err := readMeta(sc, lineno)
	if err != nil {
		return nil, err
	}
	if next == "" {
		return nil, fmt.Errorf("osprof: delta envelope without a set block")
	}
	d.Meta = meta
	set, err := readSetAs(next, sc, lineno, deltaSetHeader)
	if err != nil {
		return nil, err
	}
	d.Set = set
	return d, nil
}

// Envelope is one item of an ingest stream: exactly one of Run or
// Delta is non-nil.
type Envelope struct {
	Run   *Run
	Delta *Delta
}

// EnvelopeReader parses a stream of concatenated envelopes — full runs
// (osprof-run v1), deltas (osprof-run-delta v1), and bare sets
// (osprof-set v1) in any mix — the wire format of the batched
// /v1/ingest endpoint. Each envelope is self-terminating ("end"), so
// no framing beyond concatenation is needed.
type EnvelopeReader struct {
	sc     *bufio.Scanner
	lineno int
}

// NewEnvelopeReader wraps r for streaming envelope parsing.
func NewEnvelopeReader(r io.Reader) *EnvelopeReader {
	return &EnvelopeReader{sc: newScanner(r)}
}

// Next parses the next envelope. It returns io.EOF when the stream is
// cleanly exhausted; any other error means a malformed envelope (the
// stream position is then undefined and the caller should stop).
func (er *EnvelopeReader) Next() (Envelope, error) {
	for er.sc.Scan() {
		er.lineno++
		line := er.sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, deltaHeader+" "):
			d, err := readDeltaBody(line, er.sc, &er.lineno)
			return Envelope{Delta: d}, err
		case strings.HasPrefix(line, runHeader+" "), strings.HasPrefix(line, setHeader+" "):
			run, err := readRunBody(line, er.sc, &er.lineno)
			return Envelope{Run: run}, err
		default:
			return Envelope{}, fmt.Errorf("osprof: line %d: unrecognized envelope header %q",
				er.lineno, line)
		}
	}
	if err := er.sc.Err(); err != nil {
		return Envelope{}, err
	}
	return Envelope{}, io.EOF
}

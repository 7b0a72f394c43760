package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements the versioned run envelope: a recorded run is a
// profile set (the paper's /proc export, marshal.go) wrapped with the
// scenario fingerprint that produced it and free-form metadata. The
// envelope is what the profile archive (internal/store) persists and
// what `osprof diff` compares, turning one-shot profiles into durable,
// addressable artifacts.
//
// Format:
//
//	osprof-run v1 fingerprint=<hex>
//	meta <key> <value>
//	...
//	osprof-set v1 <name> r=<r>
//	...
//	end
//
// Meta keys and values are quoted with %q and written in sorted key
// order, so serialization is deterministic: identical runs marshal to
// identical bytes, which is what lets the content-addressed archive
// deduplicate reruns of the same deterministic world. ReadRun also
// accepts a bare `osprof-set v1` stream (an envelope with no
// fingerprint and no metadata), keeping every pre-envelope artifact
// readable.

const runHeader = "osprof-run v1"

// Run is one recorded profiling run: the captured profile set plus the
// identity of the configuration that produced it.
type Run struct {
	// Fingerprint is the canonical identity of the producing
	// configuration (scenario.Spec.Fingerprint); empty for ad-hoc or
	// legacy artifacts.
	Fingerprint string

	// Meta carries free-form descriptive pairs (backend, elapsed
	// simulated cycles, ...). It must not contain wall-clock values:
	// recording the same deterministic world twice must marshal to
	// identical bytes.
	Meta map[string]string

	// Set is the captured profile set.
	Set *Set
}

// Name returns the run's set name.
func (r *Run) Name() string {
	if r.Set == nil {
		return ""
	}
	return r.Set.Name
}

// Clone returns a deep copy sharing no state with the receiver: the
// stable snapshot an accumulator hands off (to archiving, to a diff)
// while deltas keep mutating the original.
func (r *Run) Clone() *Run {
	c := &Run{Fingerprint: r.Fingerprint, Meta: cloneMeta(r.Meta)}
	if r.Set != nil {
		c.Set = r.Set.Clone()
	}
	return c
}

// WriteRun serializes the run envelope to w.
func WriteRun(w io.Writer, r *Run) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s fingerprint=%q\n", runHeader, r.Fingerprint)
	writeMeta(bw, r.Meta)
	writeSetAs(bw, r.Set, setHeader)
	return bw.Flush()
}

// ReadRun parses a run envelope serialized by WriteRun. A bare
// `osprof-set v1` stream is accepted too and yields a Run with an empty
// fingerprint and no metadata.
func ReadRun(r io.Reader) (*Run, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("osprof: empty input")
	}
	lineno := 1
	run, err := readRunBody(sc.Text(), sc, &lineno)
	if err != nil {
		return nil, err
	}
	return run, rejectTrailing(sc, &lineno)
}

// readRunBody parses one run envelope (or bare set) whose header line
// has already been scanned, consuming lines through its "end" marker.
// ReadRun and the batch EnvelopeReader share it.
func readRunBody(line string, sc *bufio.Scanner, lineno *int) (*Run, error) {
	run := &Run{}
	if strings.HasPrefix(line, runHeader+" ") {
		fp, err := parseEnvelopeHeader(line, runHeader)
		if err != nil {
			return nil, err
		}
		run.Fingerprint = fp
		meta, next, err := readMeta(sc, lineno)
		if err != nil {
			return nil, err
		}
		if next == "" {
			return nil, fmt.Errorf("osprof: run envelope without a profile set")
		}
		run.Meta = meta
		line = next
	}
	set, err := readSet(line, sc, lineno)
	if err != nil {
		return nil, err
	}
	run.Set = set
	return run, nil
}

// parseEnvelopeHeader extracts the fingerprint from a run or delta
// header line: `<header> fingerprint="..."` with optional trailing
// key=value fields left to the caller via parseHeaderFields.
func parseEnvelopeHeader(line, header string) (string, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, header+" "))
	if !strings.HasPrefix(rest, "fingerprint=") {
		return "", fmt.Errorf("osprof: %s header missing fingerprint: %q", header, line)
	}
	fp, trailing, err := parseQuoted(strings.TrimPrefix(rest, "fingerprint="))
	if err != nil {
		return "", fmt.Errorf("osprof: %s header: %w", header, err)
	}
	if strings.TrimSpace(trailing) != "" {
		return "", fmt.Errorf("osprof: %s header trailing data %q", header, trailing)
	}
	return fp, nil
}

// readMeta consumes `meta <key> <value>` lines, returning the parsed
// map (nil when there were none) and the first non-meta line (empty at
// EOF).
func readMeta(sc *bufio.Scanner, lineno *int) (map[string]string, string, error) {
	var meta map[string]string
	for sc.Scan() {
		*lineno++
		l := sc.Text()
		if strings.TrimSpace(l) == "" {
			continue
		}
		if !strings.HasPrefix(l, "meta ") {
			return meta, l, nil
		}
		key, rest, err := parseQuoted(strings.TrimPrefix(l, "meta "))
		if err != nil {
			return nil, "", fmt.Errorf("osprof: line %d: meta key: %w", *lineno, err)
		}
		val, trailing, err := parseQuoted(strings.TrimSpace(rest))
		if err != nil {
			return nil, "", fmt.Errorf("osprof: line %d: meta value: %w", *lineno, err)
		}
		if strings.TrimSpace(trailing) != "" {
			return nil, "", fmt.Errorf("osprof: line %d: meta trailing data %q", *lineno, trailing)
		}
		if meta == nil {
			meta = make(map[string]string)
		}
		meta[key] = val
	}
	return meta, "", sc.Err()
}

// writeMeta writes the meta lines in sorted key order (the
// deterministic-bytes invariant shared by runs and deltas).
func writeMeta(bw *bufio.Writer, meta map[string]string) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "meta %q %q\n", k, meta[k])
	}
}

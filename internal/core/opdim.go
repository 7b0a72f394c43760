package core

import "strings"

// Derived operation names. A profiler that reads one operation's
// latency at several instrumentation points files each extra reading
// under a derived name, op@<dimension>, so every surface that handles
// plain operations (envelopes, archive, diff, serve) carries it with no
// format change. This file is the one registry of that grammar:
//
//	read@fs        DimLayer: self-time inside one stack layer
//	read@crit:fs   DimCrit: the request's inclusive latency, filed
//	               under the layer that dominated it (critical path)
//	read@load:2-4  DimLoad: a sample taken at one run-queue load band
//
// The dimension marker starts at the name's last '@', so a base may
// itself contain one ("a@b@net" is layer net of operation "a@b").
// Adding a dimension costs one dims entry.

// Dim is one dimension of derived operation names.
type Dim uint8

const (
	DimNone  Dim = iota // an ordinary operation
	DimLayer            // per-layer self-time
	DimCrit             // critical-path attribution
	DimLoad             // run-queue load band
)

// layerNames are the stack layers, outermost first. Archived runs are
// named with them, so they must never change.
var layerNames = [...]string{"vfs", "fs", "pagecache", "driver", "disk", "net"}

// loadBandNames are the log-spaced run-queue load bands, lightest
// first. Archived runs are named with them, so they must never change.
var loadBandNames = [...]string{"1", "2-4", "5+"}

// LoadBands is the number of run-queue load bands.
const LoadBands = len(loadBandNames)

var dims = [...]struct {
	marker string
	values []string
	open   bool // every value splits, not only the listed ones
}{
	DimLayer: {marker: "@", values: layerNames[:]},
	// The tracer files whatever layer dominated, so the critical path
	// accepts any value; readers skip the ones they do not know.
	DimCrit: {marker: "@crit:", values: layerNames[:], open: true},
	DimLoad: {marker: "@load:", values: loadBandNames[:]},
}

// Values returns the dimension's known values in registry order. The
// slice is shared; callers must not modify it.
func (d Dim) Values() []string { return dims[d].values }

// Index returns value's position in Values, or -1.
func (d Dim) Index(value string) int {
	for i, v := range dims[d].values {
		if v == value {
			return i
		}
	}
	return -1
}

// Op derives the name of base's reading at value along d.
func (d Dim) Op(base, value string) string { return base + dims[d].marker + value }

// SplitOp decomposes a derived operation name into its base operation,
// dimension and value. An ordinary name, or one whose value the
// dimension does not know, returns (op, DimNone, ""), so user-defined
// operations that merely contain '@' are never misread.
func SplitOp(op string) (base string, d Dim, value string) {
	if i := strings.LastIndexByte(op, '@'); i >= 0 {
		// Longest marker first: the bare layer marker "@" prefixes
		// every other one.
		for d = DimLoad; d > DimNone; d-- {
			v, ok := strings.CutPrefix(op[i:], dims[d].marker)
			if ok && (dims[d].open || d.Index(v) >= 0) {
				return op[:i], d, v
			}
		}
	}
	return op, DimNone, ""
}

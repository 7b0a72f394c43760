package report

import (
	"fmt"
	"io"

	"osprof/internal/core"
	"osprof/internal/cycles"
)

// LayersSchema versions the `osprof trace -json` document.
const LayersSchema = "osprof-layers/v1"

// LayersDoc is the per-layer latency decomposition of one traced run,
// the structured form of the `osprof trace` table.
type LayersDoc struct {
	Schema string       `json:"schema"`
	Set    string       `json:"set"`
	Ops    []LayerOpDoc `json:"ops"`
}

// LayerOpDoc decomposes one operation across layers.
type LayerOpDoc struct {
	Op string `json:"op"`

	// Total is the operation's summed self-time across all layers.
	Total uint64 `json:"total"`

	// Layers holds one entry per layer that recorded self-time, in
	// stack order (vfs outermost).
	Layers []LayerEntry `json:"layers"`

	// Crit attributes requests to their dominant layer (the
	// op@crit:layer profiles), in stack order.
	Crit []CritEntry `json:"critical_path,omitempty"`
}

// LayerEntry is one layer's share of an operation.
type LayerEntry struct {
	Layer string  `json:"layer"`
	Count uint64  `json:"count"`
	Total uint64  `json:"total"`
	Mean  uint64  `json:"mean"`
	Share float64 `json:"share"`
}

// CritEntry counts the requests a layer dominated.
type CritEntry struct {
	Layer string `json:"layer"`
	Count uint64 `json:"count"`
}

// LayersOf extracts the layer decomposition from a traced run's set:
// every core.DimLayer and core.DimCrit profile grouped under its base
// operation, heaviest operation first. An untraced set yields a doc
// with no ops.
func LayersOf(set *core.Set) *LayersDoc {
	doc := &LayersDoc{Schema: LayersSchema, Set: set.Name}
	for _, g := range groupDerived(set, core.DimLayer, core.DimCrit) {
		op := LayerOpDoc{Op: g.op, Total: g.total}
		for _, r := range g.rows[0] {
			op.Layers = append(op.Layers, LayerEntry{
				Layer: r.value, Count: r.Count, Total: r.Total,
				Mean: r.Total / r.Count, Share: r.share,
			})
		}
		for _, r := range g.rows[1] {
			op.Crit = append(op.Crit, CritEntry{Layer: r.value, Count: r.Count})
		}
		doc.Ops = append(doc.Ops, op)
	}
	return doc
}

// Layers renders the decomposition as a table: one row per layer with
// its self-time share of the operation, then the critical-path
// attribution (how many requests each layer dominated). Returns the
// number of traced operations rendered — zero means the set carries no
// layer profiles (an untraced run).
func Layers(w io.Writer, set *core.Set) int {
	doc := LayersOf(set)
	fmt.Fprintf(w, "=== layer decomposition: %s ===\n", doc.Set)
	if len(doc.Ops) == 0 {
		fmt.Fprintln(w, "no layer profiles (untraced run; record with tracing enabled)")
		return 0
	}
	fmt.Fprintf(w, "%-14s %-10s %10s %14s %10s %7s\n",
		"OP", "LAYER", "COUNT", "SELF-TOTAL", "MEAN", "SHARE")
	for _, op := range doc.Ops {
		name := op.Op
		for _, e := range op.Layers {
			fmt.Fprintf(w, "%-14s %-10s %10d %14s %10d %6.1f%%\n",
				name, e.Layer, e.Count, cycles.Format(e.Total), e.Mean, 100*e.Share)
			name = ""
		}
		var critTotal uint64
		for _, c := range op.Crit {
			critTotal += c.Count
		}
		for _, c := range op.Crit {
			fmt.Fprintf(w, "%-14s   critical path: %-10s %d of %d requests (%.1f%%)\n",
				"", c.Layer, c.Count, critTotal, 100*float64(c.Count)/float64(critTotal))
		}
	}
	return len(doc.Ops)
}

package report

import (
	"fmt"
	"io"

	"osprof/internal/core"
	"osprof/internal/cycles"
	"osprof/internal/load"
)

// LoadSchema versions the `osprof load -json` document.
const LoadSchema = "osprof-load/v1"

// LoadDoc is the load-conditioned decomposition of one run: every
// operation's latency split by the run-queue load band its samples
// were taken at, the structured form of the `osprof load` table.
type LoadDoc struct {
	Schema string `json:"schema"`
	Set    string `json:"set"`

	// Realtime reports whether band shares were re-weighted by the
	// observed band occupancy (perf-load's -realtime).
	Realtime bool `json:"realtime,omitempty"`

	// Occupancy gives each band's share of the run's cycles, present
	// only on realtime docs.
	Occupancy []LoadOccEntry `json:"occupancy,omitempty"`

	Ops []LoadOpDoc `json:"ops"`
}

// LoadOccEntry is one band's observed occupancy.
type LoadOccEntry struct {
	Band   string  `json:"band"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// LoadOpDoc decomposes one operation across load bands.
type LoadOpDoc struct {
	Op string `json:"op"`

	// Total is the operation's summed latency across all bands.
	Total uint64 `json:"total"`

	// Bands holds one entry per band that recorded samples, in band
	// order.
	Bands []LoadBandEntry `json:"bands"`
}

// LoadBandEntry is one band's share of an operation.
type LoadBandEntry struct {
	Band  string  `json:"band"`
	Count uint64  `json:"count"`
	Total uint64  `json:"total"`
	Mean  uint64  `json:"mean"`
	Share float64 `json:"share"`

	// Weight and WeightedShare are the perf-load realtime weighting
	// (band occupancy share over sample share), present only on
	// realtime docs.
	Weight        float64 `json:"weight,omitempty"`
	WeightedShare float64 `json:"weighted_share,omitempty"`
}

// LoadOf extracts the load decomposition from a run's set: every
// core.DimLoad profile grouped under its base operation, heaviest
// operation first. An unconditioned set yields a doc with no ops.
func LoadOf(set *core.Set) *LoadDoc {
	doc := &LoadDoc{Schema: LoadSchema, Set: set.Name}
	for _, g := range groupDerived(set, core.DimLoad) {
		op := LoadOpDoc{Op: g.op, Total: g.total}
		for _, r := range g.rows[0] {
			op.Bands = append(op.Bands, LoadBandEntry{
				Band: r.value, Count: r.Count, Total: r.Total,
				Mean: r.Total / r.Count, Share: r.share,
			})
		}
		doc.Ops = append(doc.Ops, op)
	}
	return doc
}

// LoadApplyRealtime re-weights the doc's band shares by the observed
// band occupancy (perf-load's -realtime): each band's latency mass is
// scaled by w = (occupancy share) / (sample share), so a band the
// machine lived in but rarely sampled stops being underrepresented
// and shares read as wall-clock expectations.
func LoadApplyRealtime(doc *LoadDoc, occ [core.LoadBands]uint64) {
	doc.Realtime = true
	var totOcc uint64
	for _, c := range occ {
		totOcc += c
	}
	doc.Occupancy = doc.Occupancy[:0]
	for b, band := range core.DimLoad.Values() {
		share := 0.0
		if totOcc > 0 {
			share = float64(occ[b]) / float64(totOcc)
		}
		doc.Occupancy = append(doc.Occupancy, LoadOccEntry{
			Band: band, Cycles: occ[b], Share: share,
		})
	}
	for i := range doc.Ops {
		op := &doc.Ops[i]
		var counts [core.LoadBands]uint64
		for _, e := range op.Bands {
			counts[core.DimLoad.Index(e.Band)] = e.Count
		}
		w := load.Weights(occ, counts)
		var wTotal float64
		for j := range op.Bands {
			e := &op.Bands[j]
			e.Weight = w[core.DimLoad.Index(e.Band)]
			wTotal += float64(e.Total) * e.Weight
		}
		for j := range op.Bands {
			e := &op.Bands[j]
			if wTotal > 0 {
				e.WeightedShare = float64(e.Total) * e.Weight / wTotal
			}
		}
	}
}

// Load renders the decomposition as a table: one row per band with its
// sample count, latency mass and share of the operation — plus the
// realtime weight and weighted share when the doc was re-weighted.
// Returns the number of load-profiled operations rendered — zero means
// the set carries no load profiles (an unconditioned run).
func Load(w io.Writer, doc *LoadDoc) int {
	fmt.Fprintf(w, "=== load decomposition: %s ===\n", doc.Set)
	if len(doc.Ops) == 0 {
		fmt.Fprintln(w, "no load profiles (unconditioned run; record with LoadProfile enabled)")
		return 0
	}
	if doc.Realtime {
		fmt.Fprintf(w, "occupancy:")
		for _, o := range doc.Occupancy {
			fmt.Fprintf(w, " load:%s %.1f%%", o.Band, 100*o.Share)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-14s %-6s %10s %14s %10s %7s %7s %7s\n",
			"OP", "LOAD", "COUNT", "TOTAL", "MEAN", "SHARE", "WEIGHT", "RTSHARE")
	} else {
		fmt.Fprintf(w, "%-14s %-6s %10s %14s %10s %7s\n",
			"OP", "LOAD", "COUNT", "TOTAL", "MEAN", "SHARE")
	}
	for _, op := range doc.Ops {
		name := op.Op
		for _, e := range op.Bands {
			if doc.Realtime {
				fmt.Fprintf(w, "%-14s %-6s %10d %14s %10d %6.1f%% %7.2f %6.1f%%\n",
					name, e.Band, e.Count, cycles.Format(e.Total), e.Mean,
					100*e.Share, e.Weight, 100*e.WeightedShare)
			} else {
				fmt.Fprintf(w, "%-14s %-6s %10d %14s %10d %6.1f%%\n",
					name, e.Band, e.Count, cycles.Format(e.Total), e.Mean, 100*e.Share)
			}
			name = ""
		}
	}
	return len(doc.Ops)
}

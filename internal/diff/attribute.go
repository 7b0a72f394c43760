package diff

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"osprof/internal/core"
)

// LayerMove names the layer that moved under one traced operation: of
// the operation's per-layer decomposition profiles (read@fs, read@disk,
// ...), the one whose own differential verdict scored highest — or,
// when no single layer profile was flagged, the one whose mean
// self-latency moved farthest. CritA/CritB give each run's dominant
// critical-path layer (the op@crit:layer profile with the most
// inclusive latency), so a reader sees both which layer moved and
// whether the move changed what dominates the request.
type LayerMove struct {
	// Op is the base operation ("read"), without the layer suffix.
	Op string `json:"op"`

	// Layer is the moving layer ("vfs", "fs", "pagecache", "driver",
	// "disk", "net").
	Layer string `json:"layer"`

	// Verdict and Score are the moving layer profile's own diff
	// verdict (Unchanged when the attribution fell back to mean
	// movement).
	Verdict Verdict `json:"verdict"`
	Score   float64 `json:"score"`

	// MeanA and MeanB are the moving layer's mean self-latency in
	// cycles on each side.
	MeanA uint64 `json:"mean_a"`
	MeanB uint64 `json:"mean_b"`

	// CritA and CritB are each side's dominant critical-path layer.
	CritA string `json:"crit_a,omitempty"`
	CritB string `json:"crit_b,omitempty"`

	// Detail is a human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

// LoadMove attributes one changed load-profiled operation to the load
// band where it moved, splitting "read got slower" into "slower at
// load 1" (the operation itself regressed) vs "only slower under
// contention" (a scheduling or locking effect). Bands carries every
// band's own verdict so the full picture — "unchanged at load:1,
// shifted-peak at load:5+" — is directly readable.
type LoadMove struct {
	// Op is the base operation ("read"), without the load suffix.
	Op string `json:"op"`

	// Band is the moving band ("1", "2-4", "5+").
	Band string `json:"band"`

	// Verdict and Score are the moving band profile's own diff verdict
	// (Unchanged when the attribution fell back to mean movement).
	Verdict Verdict `json:"verdict"`
	Score   float64 `json:"score"`

	// MeanA and MeanB are the moving band's mean latency in cycles on
	// each side.
	MeanA uint64 `json:"mean_a"`
	MeanB uint64 `json:"mean_b"`

	// Bands holds every band's verdict, in band order.
	Bands []BandVerdict `json:"bands"`

	// Detail is a human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

// BandVerdict is one band's verdict inside a LoadMove.
type BandVerdict struct {
	Band    string  `json:"band"`
	Verdict Verdict `json:"verdict"`
	Score   float64 `json:"score"`
	CountA  uint64  `json:"count_a"`
	CountB  uint64  `json:"count_b"`
}

// row is one derived op's verdict with its dimension value ("fs",
// "2-4"); it points into the report's Ops.
type row struct {
	*OpDiff
	group int32 // index into the groups
	dim   core.Dim
	value string
}

// derived is one base operation's derived rows, grouped by dimension
// in op order.
type derived struct {
	base        string
	baseChanged bool // the base operation itself was flagged
	rows        [core.DimLoad + 1][]row
}

// groupDerived is the attribution walk every dimension shares: it
// splits each op (core.SplitOp) and groups the derived rows under their
// base operation, bases in first-seen order. All rows share one
// backing array, and a diff with no derived ops allocates nothing.
func groupDerived(ops []OpDiff) []derived {
	var groups []derived
	var rows []row
	var index map[string]int32
	for i := range ops {
		base, dim, value := core.SplitOp(ops[i].Op)
		if dim == core.DimNone {
			continue
		}
		g, ok := index[base]
		if !ok {
			if index == nil {
				index = make(map[string]int32)
				rows = make([]row, 0, len(ops)-i)
			}
			g = int32(len(groups))
			index[base] = g
			groups = append(groups, derived{base: base})
		}
		rows = append(rows, row{&ops[i], g, dim, value})
	}
	for _, d := range ops {
		if g, ok := index[d.Op]; ok && d.Verdict.Changed() {
			if _, dim, _ := core.SplitOp(d.Op); dim == core.DimNone {
				groups[g].baseChanged = true
			}
		}
	}
	slices.SortStableFunc(rows, func(x, y row) int {
		return cmp.Or(cmp.Compare(x.group, y.group), cmp.Compare(x.dim, y.dim))
	})
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].group == rows[0].group && rows[n].dim == rows[0].dim {
			n++
		}
		groups[rows[0].group].rows[rows[0].dim] = rows[:n:n]
		rows = rows[n:]
	}
	return groups
}

// pick returns the index of the moving row among g's rows along dim,
// or -1 when there are none or nothing was flagged, neither the base
// operation nor any of those rows. prefer is the dimension's own pick
// rule; when it finds nothing (-1), the row whose mean latency moved
// farthest wins.
func (g *derived) pick(dim core.Dim, prefer func([]row) int) int {
	rows := g.rows[dim]
	if len(rows) == 0 || !g.baseChanged && top(rows, flagged) < 0 {
		return -1
	}
	if best := prefer(rows); best >= 0 {
		return best
	}
	return top(rows, func(r row) (bool, uint64) {
		ma, mb := r.means()
		return true, max(ma, mb) - min(ma, mb)
	})
}

func (r row) means() (uint64, uint64) {
	return mean(r.TotalA, r.CountA), mean(r.TotalB, r.CountB)
}

// flagged keys the flagged rows by score.
func flagged(r row) (bool, float64) { return r.Verdict.Changed(), r.Score }

// top returns the row with the largest key among those key admits,
// the first on ties, or -1.
func top[K cmp.Ordered](rows []row, key func(row) (bool, K)) int {
	best := -1
	var bestKey K
	for i, r := range rows {
		if ok, k := key(r); ok && (best < 0 || k > bestKey) {
			best, bestKey = i, k
		}
	}
	return best
}

// sortMoves orders moves most severe first: score descending, then
// operation name.
func sortMoves[M interface{ key() (float64, string) }](moves []M) {
	if len(moves) < 2 {
		return
	}
	sort.SliceStable(moves, func(i, j int) bool {
		si, oi := moves[i].key()
		sj, oj := moves[j].key()
		if si != sj {
			return si > sj
		}
		return oi < oj
	})
}

func (m LayerMove) key() (float64, string) { return m.Score, m.Op }
func (m LoadMove) key() (float64, string)  { return m.Score, m.Op }

// layerMoves attributes each changed traced operation to the flagged
// layer row with the highest score. An untraced diff returns nil.
func layerMoves(groups []derived) []LayerMove {
	var out []LayerMove
	for i := range groups {
		g := &groups[i]
		best := g.pick(core.DimLayer, func(rows []row) int { return top(rows, flagged) })
		if best < 0 {
			continue
		}
		r := g.rows[core.DimLayer][best]
		mv := LayerMove{Op: g.base, Layer: r.value, Verdict: r.Verdict, Score: r.Score}
		mv.MeanA, mv.MeanB = r.means()
		// Each side's dominant critical-path layer: the crit row with
		// the most inclusive latency among those with samples.
		var totA, totB uint64
		for _, c := range g.rows[core.DimCrit] {
			if c.CountA > 0 && (mv.CritA == "" || c.TotalA > totA) {
				mv.CritA, totA = c.value, c.TotalA
			}
			if c.CountB > 0 && (mv.CritB == "" || c.TotalB > totB) {
				mv.CritB, totB = c.value, c.TotalB
			}
		}
		mv.Detail = fmt.Sprintf("%s self-mean %d -> %d cycles", r.value, mv.MeanA, mv.MeanB)
		if mv.CritA != "" && mv.CritB != "" && mv.CritA != mv.CritB {
			mv.Detail += fmt.Sprintf("; critical path moved %s -> %s", mv.CritA, mv.CritB)
		}
		out = append(out, mv)
	}
	sortMoves(out)
	return out
}

// loadMoves attributes each changed load-profiled operation to a band.
// A flagged band with samples on both sides is a latency shift at that
// load — the strongest signal. With only one-sided bands the
// *population* moved between loads: prefer the new-op band with the
// most B-side samples (where the workload's time went), then the
// largest drained band. An unconditioned diff returns nil, keeping its
// JSON byte-identical to the pre-load schema.
func loadMoves(groups []derived) []LoadMove {
	var out []LoadMove
	for i := range groups {
		g := &groups[i]
		bands := g.rows[core.DimLoad]
		slices.SortStableFunc(bands, func(x, y row) int {
			return core.DimLoad.Index(x.value) - core.DimLoad.Index(y.value)
		})
		best := g.pick(core.DimLoad, func(rows []row) int {
			best := top(rows, func(r row) (bool, float64) {
				return r.Verdict.Changed() && r.CountA > 0 && r.CountB > 0, r.Score
			})
			if best < 0 {
				best = top(rows, func(r row) (bool, uint64) { return r.Verdict == NewOp && r.CountB > 0, r.CountB })
			}
			if best < 0 {
				best = top(rows, func(r row) (bool, uint64) { return r.Verdict == MissingOp && r.CountA > 0, r.CountA })
			}
			return best
		})
		if best < 0 {
			continue
		}
		r := bands[best]
		mv := LoadMove{Op: g.base, Band: r.value, Verdict: r.Verdict, Score: r.Score}
		mv.MeanA, mv.MeanB = r.means()
		parts := make([]string, len(bands))
		for i, b := range bands {
			mv.Bands = append(mv.Bands, BandVerdict{
				Band: b.value, Verdict: b.Verdict, Score: b.Score,
				CountA: b.CountA, CountB: b.CountB,
			})
			parts[i] = fmt.Sprintf("%s at load:%s", b.Verdict, b.value)
		}
		mv.Detail = strings.Join(parts, ", ")
		switch mv.Verdict {
		case NewOp:
			mv.Detail += fmt.Sprintf("; samples moved into load:%s (%d -> %d ops)", r.value, r.CountA, r.CountB)
		case MissingOp:
			mv.Detail += fmt.Sprintf("; samples left load:%s (%d -> %d ops)", r.value, r.CountA, r.CountB)
		default:
			mv.Detail += fmt.Sprintf("; load:%s mean %d -> %d cycles", r.value, mv.MeanA, mv.MeanB)
		}
		out = append(out, mv)
	}
	sortMoves(out)
	return out
}

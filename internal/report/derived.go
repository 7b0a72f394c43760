package report

import (
	"slices"
	"sort"

	"osprof/internal/core"
)

// derivedOp is one base operation's derived profiles in a set, as
// grouped by groupDerived.
type derivedOp struct {
	op    string
	total uint64         // summed Total of the first dimension's rows
	rows  [][]derivedRow // one list per requested dimension
}

// derivedRow is one derived profile with its dimension value and its
// share of the operation's total.
type derivedRow struct {
	*core.Profile
	value string
	share float64
}

// groupDerived is the grouping the layer and load decompositions
// share: every non-empty profile of set derived along one of dims, under
// its base operation. Operations come heaviest first (by the summed
// Total of their dims[0] rows, ties by name); each dimension's rows
// come in registry value order, values the registry does not know
// dropped, with their share of that total.
func groupDerived(set *core.Set, dims ...core.Dim) []derivedOp {
	var ops []derivedOp
	index := make(map[string]int)
	for _, name := range set.Ops() {
		base, dim, value := core.SplitOp(name)
		d, prof := slices.Index(dims, dim), set.Lookup(name)
		if d < 0 || prof.Count == 0 {
			continue
		}
		i, ok := index[base]
		if !ok {
			i = len(ops)
			index[base] = i
			ops = append(ops, derivedOp{op: base, rows: make([][]derivedRow, len(dims))})
		}
		o := &ops[i]
		if d == 0 {
			o.total += prof.Total
		}
		if dim.Index(value) >= 0 {
			o.rows[d] = append(o.rows[d], derivedRow{Profile: prof, value: value})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].total != ops[j].total {
			return ops[i].total > ops[j].total
		}
		return ops[i].op < ops[j].op
	})
	for _, o := range ops {
		for d, rows := range o.rows {
			slices.SortFunc(rows, func(x, y derivedRow) int {
				return dims[d].Index(x.value) - dims[d].Index(y.value)
			})
			for i := range rows {
				if o.total > 0 {
					rows[i].share = float64(rows[i].Total) / float64(o.total)
				}
			}
		}
	}
	return ops
}

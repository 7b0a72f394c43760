package main

import (
	"fmt"
	"io"
	"strconv"

	"osprof/internal/core"
	"osprof/internal/report"
)

// cmdLoad implements `osprof load <ref>`: the run's load-conditioned
// latency decomposition — each operation's samples split by the
// run-queue load band they were taken at. -realtime re-weights the
// band shares by the band occupancy the run recorded in its metadata
// (perf-load's -realtime), turning sample shares into wall-clock
// expectations.
func cmdLoad(rest []string, archiveDir string, realtime, jsonOut bool, stdout, stderr io.Writer) int {
	if len(rest) != 1 {
		fmt.Fprintln(stderr, "osprof: usage: osprof load <ref> [-realtime] [-json]")
		return 2
	}
	arch, err := openArchive(archiveDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	ref := rest[0]
	run, err := resolveRun(arch, ref)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %s: %v\n", ref, err)
		return 2
	}
	doc := report.LoadOf(run.Set)
	if realtime {
		var occ [core.LoadBands]uint64
		found := false
		for b, band := range core.DimLoad.Values() {
			v, ok := run.Meta["loadocc:"+band]
			if !ok {
				continue
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				fmt.Fprintf(stderr, "osprof: %s: bad load occupancy %q in run metadata\n", ref, v)
				return 2
			}
			occ[b] = n
			found = true
		}
		if !found {
			fmt.Fprintf(stderr, "osprof: %s: no load occupancy in run metadata (record with -load)\n", ref)
			return 2
		}
		report.LoadApplyRealtime(doc, occ)
	}
	if jsonOut {
		if err := report.JSON(stdout, doc); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		return 0
	}
	report.Load(stdout, doc)
	return 0
}

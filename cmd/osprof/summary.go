package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"osprof/internal/report"
	"osprof/internal/summary"
)

// cmdSummary implements `osprof summary <ref>`: the run's streaming
// set digest — per-operation quantiles, peak counts, and the hottest
// operations — as a text table or the osprof-summary/v1 document. The
// CLI twin of GET /v1/summary: triage a run's latency surface without
// rendering every histogram.
func cmdSummary(rest []string, archiveDir string, jsonOut bool, stdout, stderr io.Writer) int {
	if len(rest) != 1 {
		fmt.Fprintln(stderr, "osprof: usage: osprof summary <ref> [-json]")
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
	doc := report.SummaryOf(summary.OfSet(run.Set, summary.DefaultTopK))
	doc.Fingerprint = run.Fingerprint
	// Archive references carry their content address; a local envelope
	// file has none.
	if st, err := os.Stat(ref); err != nil || st.IsDir() ||
		strings.HasPrefix(ref, "latest:") || strings.HasPrefix(ref, "baseline:") {
		doc.ID, _ = arch.ResolveRef(ref)
	}
	if jsonOut {
		if err := report.JSON(stdout, doc); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		return 0
	}
	report.RenderSummary(stdout, doc)
	return 0
}

package main

import (
	"fmt"
	"io"

	"osprof/internal/classify"
	"osprof/internal/report"
	"osprof/internal/watch"
)

// This file implements `osprof watch <ref|file>`: the offline half of
// the continuous anomaly watch. The referenced run is diffed against
// its blessed baseline (matched by run name first, then by
// fingerprint) and, when drifted, attributed against the labeled
// corpus — the same verdict ladder the service applies to watched
// ingests. Exit codes follow the gate convention: 0 the verdict is ok
// (or matches -expect), 1 any other verdict, 2 usage/archive errors.

// cmdWatch implements `osprof watch <ref|file>`.
func cmdWatch(rest []string, archiveDir, expect string, jsonOut bool,
	stdout, stderr io.Writer) int {
	if len(rest) != 1 {
		fmt.Fprintf(stderr, "osprof: watch takes exactly one run reference, got %d\n", len(rest))
		return 2
	}
	arch, err := openArchive(archiveDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	run, err := resolveRun(arch, rest[0])
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %s: %v\n", rest[0], err)
		return 2
	}
	entry, ok, err := arch.BaselineByName(run.Name())
	if err == nil && !ok && run.Fingerprint != "" {
		entry, ok, err = arch.Baseline(run.Fingerprint)
	}
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	if !ok {
		fmt.Fprintf(stderr, "osprof: no blessed baseline for %q (run `osprof baseline %s` first)\n",
			run.Name(), run.Name())
		return 2
	}
	baseline, err := arch.Get(entry.ID)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: baseline %.12s: %v\n", entry.ID, err)
		return 2
	}
	// Attribution is best-effort: an archive with no labeled corpus
	// still yields an ok/anomaly verdict.
	corpus, _, err := classify.FromArchive(arch)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	rep := watch.New().Evaluate(baseline, run, corpus)
	rep.BaselineID = entry.ID
	if jsonOut {
		if err := report.JSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
	} else {
		report.Watch(stdout, rep)
	}
	if expect != "" {
		if string(rep.Verdict) != expect {
			fmt.Fprintf(stderr, "osprof: verdict %q, expected %q\n", rep.Verdict, expect)
			return 1
		}
		return 0
	}
	if rep.Verdict != watch.OK {
		return 1
	}
	return 0
}

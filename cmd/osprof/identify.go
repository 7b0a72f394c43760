package main

import (
	"fmt"
	"io"

	"osprof/internal/classify"
	"osprof/internal/experiments"
	"osprof/internal/report"
	"osprof/internal/runner"
)

// This file implements the identification subcommands: `osprof corpus
// build` records the labeled reference corpus (the scenario variants)
// into the archive, and `osprof identify` attributes an unknown run —
// an archive reference or an envelope file — to the nearest corpus
// label, or abstains. Exit codes follow the regression-gate
// convention: 0 a confident match (and, with -expect, the expected
// label), 1 an abstention or an -expect mismatch, 2 usage or archive
// errors.

// cmdCorpus implements `osprof corpus build|list`.
func cmdCorpus(rest []string, seed int64, archiveDir string, opt runner.Options,
	jsonOut bool, stdout, stderr io.Writer) int {
	if len(rest) != 1 || (rest[0] != "build" && rest[0] != "list") {
		fmt.Fprintln(stderr, "osprof: usage: osprof corpus build | osprof corpus list")
		return 2
	}
	reg, fps, labels, ids := experiments.Corpus(seed)
	if rest[0] == "list" {
		if jsonOut {
			if err := report.JSON(stdout, report.CorpusList(ids, labels)); err != nil {
				fmt.Fprintf(stderr, "osprof: %v\n", err)
				return 2
			}
			return 0
		}
		for _, id := range ids {
			fmt.Fprintf(stdout, "%-28s %s\n", id, labels[id])
		}
		return 0
	}

	arch, err := openArchive(archiveDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	jobs := make([]runner.Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, runner.Job{ID: id, New: reg[id], Fingerprint: fps[id]})
	}
	return runArchived(arch, jobs, opt, jsonOut, stdout, stderr, nil,
		func(w io.Writer, rr *runner.RunResult) {
			fmt.Fprintf(w, "labeled  %-28s label=%-24s run=%.12s %s\n",
				rr.ID, labels[rr.ID], rr.RunID, dedupNote(rr))
		})
}

// cmdIdentify implements `osprof identify <ref|file>`.
func cmdIdentify(rest []string, archiveDir, expect string, jsonOut bool,
	stdout, stderr io.Writer) int {
	if len(rest) != 1 {
		fmt.Fprintf(stderr, "osprof: identify takes exactly one run reference, got %d\n", len(rest))
		return 2
	}
	arch, err := openArchive(archiveDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	corpus, labeled, err := classify.FromArchive(arch)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	if labeled == 0 {
		fmt.Fprintf(stderr, "osprof: archive %q holds no labeled corpus (run `osprof corpus build` first)\n", archiveDir)
		return 2
	}
	run, err := resolveRun(arch, rest[0])
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %s: %v\n", rest[0], err)
		return 2
	}
	rep := classify.New().Identify(corpus, run)
	if jsonOut {
		if err := report.JSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
	} else {
		report.Identify(stdout, rep)
	}
	if !rep.Matched {
		return 1
	}
	if expect != "" && rep.Label != expect {
		fmt.Fprintf(stderr, "osprof: identified %q, expected %q\n", rep.Label, expect)
		return 1
	}
	return 0
}

package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/store"
)

// This file implements `osprof bench analysis`: the summary-tier
// read-path benchmark. It generates a large synthetic archive (default
// 10k runs, deterministic shapes) plus a labeled corpus, then measures
// the two analysis requests the service answers hottest — identify
// (classifier with summary pre-filtering) and diff (summary-first
// engine) — end to end including the archive load, reporting p50/p99
// latencies as an osprof-bench-analysis/v1 document. Out of band it
// re-checks parity on a sample: the prefiltered and summary-first
// answers must agree with the exhaustive paths, so a speedup that
// changed a verdict fails the bench (exit 1), not just a test.

// benchAnalysisSchema versions the bench report document.
const benchAnalysisSchema = "osprof-bench-analysis/v1"

// benchAnalysisDoc is the `osprof bench analysis` report.
type benchAnalysisDoc struct {
	Schema       string `json:"schema"`
	Runs         int    `json:"runs"`
	CorpusLabels int    `json:"corpus_labels"`
	Requests     int    `json:"requests"`

	IdentifyP50Ms float64 `json:"identify_p50_ms"`
	IdentifyP99Ms float64 `json:"identify_p99_ms"`
	DiffP50Ms     float64 `json:"diff_p50_ms"`
	DiffP99Ms     float64 `json:"diff_p99_ms"`

	Parity string `json:"parity"` // "ok" or a failure description
}

// benchAnalysisRun synthesizes one archive filler run. Shapes are
// deterministic in i and pairwise distinct (the latency formula mixes
// i into every observation), so reruns generate the identical archive.
func benchAnalysisRun(i int) *core.Run {
	s := core.NewSet(fmt.Sprintf("bench/app-%02d", i%50))
	ops := [...]string{"read", "write", "lookup", "readdir", "unlink"}
	for oi, op := range ops {
		n := 120 + (i*31+oi*17)%120
		for j := 0; j < n; j++ {
			// A base mode per op plus a heavy tail: multi-peak profiles
			// like the real scenarios produce.
			lat := uint64(1) << uint(6+oi*2+(j%3))
			lat += uint64((i*2654435761 + j*40503 + oi*9176) % int(lat/2+1))
			if j%37 == 0 {
				lat <<= 8 // the slow-path peak
			}
			s.Record(op, lat)
		}
	}
	return &core.Run{
		Fingerprint: fmt.Sprintf("bench-app-%02d", i%50),
		Set:         s,
	}
}

// benchCorpusRun synthesizes one labeled corpus member: label li gets
// its own modal structure (modes shift with li) and the seed perturbs
// counts so two seeds of a label are distinct but close.
func benchCorpusRun(li, seed int) *core.Run {
	label := fmt.Sprintf("bench-label-%02d", li)
	s := core.NewSet("bench/corpus/" + label)
	ops := [...]string{"read", "write", "lookup", "readdir", "unlink"}
	for oi, op := range ops {
		n := 200 + seed*3 + oi*11
		for j := 0; j < n; j++ {
			lat := uint64(1) << uint(5+(oi+li)%12)
			lat += uint64((li*7919 + seed*104729 + j*31) % int(lat/2+1))
			if j%(29+li%7) == 0 {
				lat <<= 6
			}
			s.Record(op, lat)
		}
	}
	return &core.Run{
		Fingerprint: "bench-corpus-" + label,
		Meta:        map[string]string{store.LabelMetaKey: label},
		Set:         s,
	}
}

// quantileMs picks the q-quantile (by rank) of sorted durations, in
// milliseconds.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// cmdBenchAnalysis implements `osprof bench analysis`.
func cmdBenchAnalysis(runs, requests int, out string, stdout, stderr io.Writer) int {
	if runs < 100 || requests < 10 {
		fmt.Fprintln(stderr, "osprof: bench analysis needs -runs >= 100, -requests >= 10")
		return 2
	}
	const corpusLabels = 20
	dir, err := os.MkdirTemp("", "osprof-bench-analysis-*")
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	arch, err := store.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}

	// Populate: the filler archive in batches, then the labeled corpus
	// (two seeds per label, so centroids genuinely fold runs).
	ids := make([]string, 0, runs)
	const batch = 256
	for lo := 0; lo < runs; lo += batch {
		hi := lo + batch
		if hi > runs {
			hi = runs
		}
		put := make([]*core.Run, 0, hi-lo)
		for i := lo; i < hi; i++ {
			put = append(put, benchAnalysisRun(i))
		}
		res, err := arch.PutBatch(put)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: populate archive: %v\n", err)
			return 2
		}
		for _, r := range res {
			ids = append(ids, r.ID)
		}
	}
	var corpusRuns []*core.Run
	for li := 0; li < corpusLabels; li++ {
		corpusRuns = append(corpusRuns, benchCorpusRun(li, 1), benchCorpusRun(li, 2))
	}
	if _, err := arch.PutBatch(corpusRuns); err != nil {
		fmt.Fprintf(stderr, "osprof: populate corpus: %v\n", err)
		return 2
	}

	// The corpus builds once and is reused — exactly the service's
	// memoization (it rebuilds only when the index changes).
	corpus, _, err := classify.FromArchive(arch)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: corpus: %v\n", err)
		return 2
	}

	// Identify: classifier with summary pre-filtering, timed end to end
	// including the archive load of the unknown run.
	fast := classify.New()
	fast.Prefilter = classify.DefaultPrefilter
	identifyMs := make([]time.Duration, 0, requests)
	for k := 0; k < requests; k++ {
		id := ids[(k*librarianPrime)%len(ids)]
		t0 := time.Now()
		run, err := arch.Get(id)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: get %s: %v\n", id, err)
			return 2
		}
		fast.Identify(corpus, run)
		identifyMs = append(identifyMs, time.Since(t0))
	}

	// Diff: the summary-first engine, timed end to end over a mix of
	// identical pairs (the fleet's healthy-re-ingest steady state, fast
	// path) and distinct pairs (escalation to the full analysis).
	engine := diff.NewSummaryFirst()
	diffMs := make([]time.Duration, 0, requests)
	for k := 0; k < requests; k++ {
		ia := (k * librarianPrime) % len(ids)
		ib := ia
		if k%2 == 1 {
			ib = (ia + 1) % len(ids)
		}
		t0 := time.Now()
		a, err := arch.Get(ids[ia])
		if err == nil {
			var b *core.Run
			if b, err = arch.Get(ids[ib]); err == nil {
				engine.Runs(a, b)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "osprof: get pair: %v\n", err)
			return 2
		}
		diffMs = append(diffMs, time.Since(t0))
	}

	parity := benchAnalysisParity(arch, corpus, ids)

	sort.Slice(identifyMs, func(i, j int) bool { return identifyMs[i] < identifyMs[j] })
	sort.Slice(diffMs, func(i, j int) bool { return diffMs[i] < diffMs[j] })
	doc := benchAnalysisDoc{
		Schema:        benchAnalysisSchema,
		Runs:          runs,
		CorpusLabels:  corpusLabels,
		Requests:      requests,
		IdentifyP50Ms: quantileMs(identifyMs, 0.50),
		IdentifyP99Ms: quantileMs(identifyMs, 0.99),
		DiffP50Ms:     quantileMs(diffMs, 0.50),
		DiffP99Ms:     quantileMs(diffMs, 0.99),
		Parity:        parity,
	}
	if code := writeBenchDoc(stdout, stderr, out, doc); code != 0 {
		return code
	}
	if doc.Parity != "ok" {
		fmt.Fprintf(stderr, "osprof: bench analysis failed: parity %s\n", doc.Parity)
		return 1
	}
	return 0
}

// librarianPrime strides the id list so timed requests spread across
// the archive instead of hammering one hot segment.
const librarianPrime = 7919

// benchAnalysisParity spot-checks the fast paths against the exhaustive
// ones on a sample: prefiltered identify must agree on label and
// abstention, summary-first diff must agree on every verdict.
func benchAnalysisParity(arch *store.Archive, corpus *classify.Corpus, ids []string) string {
	fast := classify.New()
	fast.Prefilter = classify.DefaultPrefilter
	full := classify.New()
	fastDiff := diff.NewSummaryFirst()
	fullDiff := diff.New()
	for k := 0; k < 10; k++ {
		ia := (k * 997) % len(ids)
		a, err := arch.Get(ids[ia])
		if err != nil {
			return fmt.Sprintf("get %s: %v", ids[ia], err)
		}
		fr, xr := fast.Identify(corpus, a), full.Identify(corpus, a)
		if fr.Matched != xr.Matched || fr.Label != xr.Label || fr.Distance != xr.Distance {
			return fmt.Sprintf("identify parity: %s prefiltered %v/%q, full %v/%q",
				ids[ia], fr.Matched, fr.Label, xr.Matched, xr.Label)
		}
		b, err := arch.Get(ids[(ia+k)%len(ids)])
		if err != nil {
			return fmt.Sprintf("get pair: %v", err)
		}
		fd, xd := fastDiff.Runs(a, b), fullDiff.Runs(a, b)
		if fd.Changed != xd.Changed || len(fd.Ops) != len(xd.Ops) {
			return fmt.Sprintf("diff parity: %s vs %s fast Changed=%d, full Changed=%d",
				ids[ia], ids[(ia+k)%len(ids)], fd.Changed, xd.Changed)
		}
		verdicts := make(map[string]diff.Verdict, len(xd.Ops))
		for _, d := range xd.Ops {
			verdicts[d.Op] = d.Verdict
		}
		for _, d := range fd.Ops {
			if v, ok := verdicts[d.Op]; !ok || v != d.Verdict {
				return fmt.Sprintf("diff parity: op %s fast %q, full %q", d.Op, d.Verdict, v)
			}
		}
	}
	return "ok"
}

// Package runner executes independent experiments concurrently. Every
// experiment builds its own simulated kernel — an isolated
// deterministic world — so a set of experiments is embarrassingly
// parallel: a worker pool runs them across cores while each individual
// simulation stays strictly sequential, and the check verdicts are
// bit-identical to a serial run regardless of the worker count.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"osprof/internal/core"
	"osprof/internal/experiments"
	"osprof/internal/report"
)

// Schema versions the JSON shape of RunResult so downstream tooling
// (e.g. `osprof diff --json` pipelines) can rely on it; bump it on any
// breaking change to the serialized fields.
const Schema = "osprof-run-result/v1"

// Job is one experiment to run: New must build and execute the
// experiment from scratch (it is called inside a worker).
type Job struct {
	ID  string
	New func() experiments.Result

	// Fingerprint is the canonical identity of the configuration the
	// job runs (scenario.Spec.Fingerprint); it keys the archived run
	// artifact when Options.Archive is set.
	Fingerprint string
}

// SetProvider is implemented by experiment results whose captured
// profile set can be archived as a run artifact.
type SetProvider interface {
	ProfileSet() *core.Set
}

// MetaProvider optionally supplies deterministic descriptive metadata
// for the archived run envelope (no wall-clock values: archived runs
// of the same deterministic world must be byte-identical).
type MetaProvider interface {
	RunMeta() map[string]string
}

// Archiver persists run envelopes; satisfied by *store.Archive.
type Archiver interface {
	Put(run *core.Run) (id string, created bool, err error)
}

// RunResult is the structured outcome of one job.
type RunResult struct {
	// Schema identifies the serialized shape (the Schema constant).
	Schema string `json:"schema"`

	// ID is the job's identifier.
	ID string `json:"id"`

	// Checks are the experiment's invariant verdicts.
	Checks []experiments.Check `json:"checks"`

	// Failed counts the failed checks.
	Failed int `json:"failed"`

	// Wall is the job's wall-clock time.
	Wall time.Duration `json:"wall_ns"`

	// Report is the paper-style textual output (captured only when
	// Options.CaptureReport is set).
	Report string `json:"report,omitempty"`

	// Panic carries a recovered panic message; a panicked job counts
	// as failed.
	Panic string `json:"panic,omitempty"`

	// Fingerprint and RunID identify the archived run artifact when
	// the runner archived one; Dedup marks a rerun whose bytes matched
	// an already-archived run (the determinism fast path).
	Fingerprint string `json:"fingerprint,omitempty"`
	RunID       string `json:"run_id,omitempty"`
	Dedup       bool   `json:"dedup,omitempty"`

	// ArchiveErr reports a failed archive write; it counts as a
	// failure.
	ArchiveErr string `json:"archive_error,omitempty"`
}

// OK reports whether the job completed with all checks passing.
func (r *RunResult) OK() bool {
	return r.Panic == "" && r.ArchiveErr == "" && r.Failed == 0
}

// Options configures a runner invocation.
type Options struct {
	// Parallel is the worker count; values < 1 mean GOMAXPROCS.
	Parallel int

	// CaptureReport renders each result's Report into the RunResult.
	CaptureReport bool

	// Archive, when set, persists each job's profile set (results
	// implementing SetProvider) as a run envelope keyed by the job's
	// Fingerprint. The archive must be safe for concurrent use.
	Archive Archiver
}

// Run executes the jobs on a worker pool and returns one RunResult per
// job, in job order. Check verdicts do not depend on Parallel: each
// job's simulated world is isolated, so only wall-clock times differ
// between serial and parallel runs.
func Run(jobs []Job, opt Options) []RunResult {
	workers := opt.Parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]RunResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runOne(jobs[i], opt)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// runOne executes a single job, converting panics into a failed
// RunResult so one broken experiment cannot take down the batch.
func runOne(job Job, opt Options) (rr RunResult) {
	rr.Schema = Schema
	rr.ID = job.ID
	start := time.Now()
	defer func() {
		rr.Wall = time.Since(start)
		if p := recover(); p != nil {
			rr.Panic = fmt.Sprint(p)
			rr.Failed++
		}
	}()
	r := job.New()
	rr.Checks = r.Checks()
	for _, c := range rr.Checks {
		if !c.OK {
			rr.Failed++
		}
	}
	if opt.CaptureReport {
		var buf strings.Builder
		r.Report(&buf)
		rr.Report = buf.String()
	}
	if opt.Archive != nil {
		archive(r, job, &rr, opt.Archive)
	}
	return rr
}

// archive persists the result's profile set as a run envelope.
func archive(r experiments.Result, job Job, rr *RunResult, arch Archiver) {
	sp, ok := r.(SetProvider)
	if !ok {
		return
	}
	set := sp.ProfileSet()
	if set == nil {
		return
	}
	run := &core.Run{Fingerprint: job.Fingerprint, Set: set}
	if mp, ok := r.(MetaProvider); ok {
		run.Meta = mp.RunMeta()
	}
	id, created, err := arch.Put(run)
	if err != nil {
		rr.ArchiveErr = err.Error()
		rr.Failed++
		return
	}
	rr.Fingerprint = job.Fingerprint
	rr.RunID = id
	rr.Dedup = !created
}

// FailedChecks sums the failed checks (and panics) across results.
func FailedChecks(results []RunResult) int {
	total := 0
	for i := range results {
		total += results[i].Failed
	}
	return total
}

// WriteJSON emits the results as an indented JSON array.
func WriteJSON(w io.Writer, results []RunResult) error {
	return report.JSON(w, results)
}

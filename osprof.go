// Package osprof is a Go implementation of the OSprof operating-system
// profiling method from "Operating System Profiling via Latency
// Analysis" (Joukov, Traeger, Iyer, Wright, Zadok — OSDI 2006).
//
// OSprof captures the latency of every OS request, sorts latencies into
// logarithmic buckets at run time, and analyzes the resulting
// multi-modal distributions: different internal OS activities (lock
// contention, I/O classes, preemption, interrupts) create different
// peaks.
//
// This package is the stable public facade over the implementation:
//
//   - live collection: Recorder, Session, Span, and the stdlib
//     instrumentation wrappers (WrapReader, WrapConn, ProfileHandler)
//     that let any Go program profile itself in production (live.go);
//   - profile collection: Profile, Set, Sampled, Correlation and the
//     concurrent-update strategies of §3.4;
//   - automated analysis: peak detection, Earth Mover's Distance and
//     the other §3.2 comparison metrics, and the three-phase selection
//     of interesting profile pairs;
//   - rendering: paper-style ASCII histograms, Figure 9-style
//     timelines, and gnuplot scripts.
//
// The simulated OS substrate (kernel scheduler, disk, page cache, VFS,
// file systems, network) used to regenerate the paper's figures lives
// in internal/ packages; the cmd/osprof tool runs those experiments.
// The declarative scenario layer (Scenario, BuildScenario, RunScenario,
// ScenarioMatrix) composes that substrate into complete instrumented
// stacks from a single spec.
package osprof

import (
	"io"

	"osprof/internal/analysis"
	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/fault"
	"osprof/internal/report"
	"osprof/internal/scenario"
	"osprof/internal/store"
	"osprof/internal/summary"
	"osprof/internal/watch"
)

// Re-exported collection types (see internal/core).
type (
	// Profile is a logarithmic latency histogram for one operation.
	Profile = core.Profile

	// Set is a complete profile: one Profile per operation.
	Set = core.Set

	// Sampled is a time-segmented ("3D") profile (§3.1, Figure 9).
	Sampled = core.Sampled

	// Correlation splits an auxiliary variable's histogram by latency
	// peak (§3.1, Figure 8).
	Correlation = core.Correlation

	// BucketRange is an inclusive range of bucket indices.
	BucketRange = core.BucketRange

	// ConcurrentProfile is a histogram safe for concurrent recording.
	ConcurrentProfile = core.ConcurrentProfile

	// LockingMode selects the §3.4 bucket-update strategy.
	LockingMode = core.LockingMode
)

// Locking modes (§3.4).
const (
	Unsync  = core.Unsync
	Locked  = core.Locked
	Sharded = core.Sharded
)

// Re-exported analysis types (see internal/analysis).
type (
	// Peak is one mode of a latency distribution.
	Peak = analysis.Peak

	// Method identifies a profile-comparison algorithm.
	Method = analysis.Method

	// Selector is the three-phase automated pair selection (§3.2).
	Selector = analysis.Selector

	// PairReport is one operation's comparison outcome.
	PairReport = analysis.PairReport
)

// Comparison methods (§3.2, §5.3).
const (
	EMD          = analysis.EMD
	ChiSquare    = analysis.ChiSquare
	TotalOps     = analysis.TotalOps
	TotalLatency = analysis.TotalLatency
	Intersection = analysis.Intersection
	Minkowski    = analysis.Minkowski
	Jeffrey      = analysis.Jeffrey
)

// NewProfile creates an empty profile for an operation (resolution 1).
func NewProfile(op string) *Profile { return core.NewProfile(op) }

// NewProfileR creates a profile with resolution r buckets per doubling.
func NewProfileR(op string, r int) *Profile { return core.NewProfileR(op, r) }

// NewSet creates an empty profile set.
func NewSet(name string) *Set { return core.NewSet(name) }

// NewSampled creates a time-segmented profile.
func NewSampled(op string, start, interval uint64) *Sampled {
	return core.NewSampled(op, start, interval)
}

// NewCorrelation creates a peak-correlation profile.
func NewCorrelation(op string, peaks []BucketRange) *Correlation {
	return core.NewCorrelation(op, peaks)
}

// BucketFor returns the bucket index of a latency at resolution r.
func BucketFor(latency uint64, r int) int { return core.BucketFor(latency, r) }

// FindPeaks identifies the peaks of a profile.
func FindPeaks(p *Profile) []Peak { return analysis.FindPeaks(p) }

// Score rates the difference of two profiles under a method.
func Score(m Method, a, b *Profile) float64 { return analysis.Score(m, a, b) }

// DefaultSelector returns the standard automated-analysis parameters.
func DefaultSelector() *Selector { return analysis.DefaultSelector() }

// WriteSet serializes a profile set in the text exchange format.
func WriteSet(w io.Writer, s *Set) error { return core.WriteSet(w, s) }

// ReadSet parses a serialized profile set.
func ReadSet(r io.Reader) (*Set, error) { return core.ReadSet(r) }

// Re-exported run-archive and differential-analysis types (see
// internal/core, internal/store, internal/diff).
type (
	// Run is a recorded profiling run: a profile set wrapped with the
	// fingerprint of the configuration that produced it and metadata.
	Run = core.Run

	// Archive is the content-addressed on-disk run archive.
	Archive = store.Archive

	// ArchiveEntry describes one recorded run in the archive index.
	ArchiveEntry = store.Entry

	// DiffEngine classifies per-operation changes between two runs.
	DiffEngine = diff.Engine

	// DiffReport is the pairwise differential analysis of two runs.
	DiffReport = diff.Report

	// OpDiff is the differential verdict for one operation.
	OpDiff = diff.OpDiff

	// Verdict classifies one operation's change between two runs.
	Verdict = diff.Verdict
)

// Differential verdicts.
const (
	Unchanged   = diff.Unchanged
	ShiftedPeak = diff.ShiftedPeak
	NewPeak     = diff.NewPeak
	LostPeak    = diff.LostPeak
	Reshaped    = diff.Reshaped
	NewOp       = diff.NewOp
	MissingOp   = diff.MissingOp
)

// WriteRun serializes a run envelope (fingerprint + metadata + set).
func WriteRun(w io.Writer, r *Run) error { return core.WriteRun(w, r) }

// ReadRun parses a run envelope; bare profile sets are accepted too.
func ReadRun(r io.Reader) (*Run, error) { return core.ReadRun(r) }

// OpenArchive opens (creating if needed) the run archive at dir.
func OpenArchive(dir string) (*Archive, error) { return store.Open(dir) }

// Re-exported incremental-export types (see internal/core,
// internal/store): a long-lived recorder ships Delta envelopes — only
// the buckets that changed since its last export — and the batched
// ingest service coalesces them; replaying a delta chain in order
// rebuilds the full run byte-identically.
type (
	// Delta is one incremental run envelope of a delta chain.
	Delta = core.Delta

	// RunEnvelope is one envelope of a concatenated stream: a full run
	// or a delta.
	RunEnvelope = core.Envelope

	// RunEnvelopeReader iterates a stream of concatenated envelopes.
	RunEnvelopeReader = core.EnvelopeReader

	// PutResult is one run's outcome in a batched archive write.
	PutResult = store.PutResult
)

// ErrCounterOverflow reports that merging or applying a delta would
// overflow a histogram counter; the receiver is left untouched.
var ErrCounterOverflow = core.ErrCounterOverflow

// DeltaOf computes the incremental envelope that advances prev to cur
// (prev nil means the whole of cur), stamped with chain position seq.
func DeltaOf(prev, cur *Run, seq int) (*Delta, error) { return core.DeltaOf(prev, cur, seq) }

// MergeRun folds src's histograms into dst transactionally: on any
// error (mismatched fingerprints, counter overflow) dst is unchanged.
func MergeRun(dst, src *Run) error { return core.MergeRun(dst, src) }

// WriteDelta serializes a delta envelope.
func WriteDelta(w io.Writer, d *Delta) error { return core.WriteDelta(w, d) }

// ReadDelta parses a delta envelope serialized by WriteDelta.
func ReadDelta(r io.Reader) (*Delta, error) { return core.ReadDelta(r) }

// NewRunEnvelopeReader reads a stream of concatenated run and delta
// envelopes (the batched /v1/ingest wire format).
func NewRunEnvelopeReader(r io.Reader) *RunEnvelopeReader { return core.NewEnvelopeReader(r) }

// NewSummaryFirstDiff returns a differential engine that screens every
// pair with the alloc-free summary digests first, escalating to the
// full peak/EMD analysis only when the digests cannot witness the
// verdict — identical answers, a fraction of the cost on unchanged
// pairs.
func NewSummaryFirstDiff() *DiffEngine { return diff.NewSummaryFirst() }

// NewDiff returns a differential-analysis engine with the standard
// selector (EMD scoring, the paper's recommended metric).
func NewDiff() *DiffEngine { return diff.New() }

// RenderDiff writes the differential report with side-by-side
// histograms of the changed operations.
func RenderDiff(w io.Writer, d *DiffReport, a, b *Set) {
	report.Diff(w, d, a, b, report.Options{})
}

// Render writes a paper-style ASCII histogram of a profile.
func Render(w io.Writer, p *Profile) { report.Profile(w, p, report.Options{}) }

// RenderSet renders every profile of a set, largest contributor first.
func RenderSet(w io.Writer, s *Set) { report.Set(w, s, report.Options{}) }

// RenderTimeline renders a sampled profile as a Figure 9-style plot.
func RenderTimeline(w io.Writer, s *Sampled) { report.Timeline(w, s) }

// RenderGnuplot writes a gnuplot script for a profile.
func RenderGnuplot(w io.Writer, p *Profile) { report.Gnuplot(w, p) }

// Re-exported scenario types (see internal/scenario): a Scenario
// declares a complete simulated stack — kernel build, disk, page
// cache, file-system backend, files, instrumentation point, and
// workloads — and Build/Run wire and execute it deterministically.
type (
	// Scenario declares one complete experiment stack.
	Scenario = scenario.Spec

	// ScenarioStack is a wired scenario ready to run.
	ScenarioStack = scenario.Stack

	// ScenarioWorkload declares one simulated workload of a scenario.
	ScenarioWorkload = scenario.Workload

	// ScenarioInstrument selects the profiling point and mode.
	ScenarioInstrument = scenario.Instrument

	// ScenarioBackend selects the file-system implementation.
	ScenarioBackend = scenario.Backend

	// ScenarioPoint is a Figure 2 instrumentation layer.
	ScenarioPoint = scenario.Point

	// ScenarioKind names a workload generator.
	ScenarioKind = scenario.Kind

	// ScenarioFile pre-creates one file in the scenario's root.
	ScenarioFile = scenario.FileSpec
)

// Scenario backends.
const (
	NoFS      = scenario.NoFS
	Ext2FS    = scenario.Ext2
	ReiserFS  = scenario.Reiser
	CIFSMount = scenario.CIFS
)

// Scenario instrumentation points (the paper's Figure 2 layers).
const (
	NoProfiler  = scenario.NoProfiler
	FSLevel     = scenario.FSLevel
	UserLevel   = scenario.UserLevel
	DriverLevel = scenario.DriverLevel
)

// Scenario workload kinds.
const (
	CustomWorkload     = scenario.Custom
	GrepWorkload       = scenario.Grep
	PostmarkWorkload   = scenario.Postmark
	RandomReadWorkload = scenario.RandomRead
	ReadZeroWorkload   = scenario.ReadZero
	CloneWorkload      = scenario.Clone
	WalkWorkload       = scenario.Walk
)

// BuildScenario wires the stack a Scenario describes.
func BuildScenario(spec Scenario) (*ScenarioStack, error) { return scenario.Build(spec) }

// RunScenario builds a Scenario and runs its workloads to completion.
func RunScenario(spec Scenario) (*ScenarioStack, error) { return scenario.RunSpec(spec) }

// ScenarioVariants returns the named kernel-configuration variant
// scenarios — the labeled identification corpus (kernel preemption
// build × backend × page-cache size), for record/diff/identify
// workflows.
func ScenarioVariants(seed int64) []Scenario { return scenario.Variants(seed) }

// Re-exported fingerprint-classification types (see internal/classify):
// the OS fingerprint classifier attributes an unknown recorded run to
// the nearest label of a reference corpus by per-operation EMD, or
// abstains.
type (
	// Classifier identifies unknown runs against a corpus.
	Classifier = classify.Classifier

	// Corpus is a labeled reference corpus ready for classification.
	Corpus = classify.Corpus

	// Centroid is one corpus label's merged reference runs.
	Centroid = classify.Centroid

	// IdentifyReport is the classification verdict for one run.
	IdentifyReport = classify.Report

	// LabelDistance is one ranked corpus label of a verdict.
	LabelDistance = classify.LabelDistance

	// OpEvidence names one operation's contribution to a verdict.
	OpEvidence = classify.OpEvidence
)

// NewClassifier returns a classifier with the default abstention
// thresholds (maximum distance and minimum relative margin).
func NewClassifier() *Classifier { return classify.New() }

// BuildCorpus groups labeled runs (run metadata key "label") into
// per-label centroids.
func BuildCorpus(runs []*Run) (*Corpus, error) { return classify.BuildCorpus(runs) }

// CorpusFromArchive builds the reference corpus from every labeled run
// in the archive, also reporting how many labeled runs it found.
func CorpusFromArchive(arch *Archive) (*Corpus, int, error) { return classify.FromArchive(arch) }

// RenderIdentify writes a classification verdict as a ranked label
// table with per-operation evidence.
func RenderIdentify(w io.Writer, rep *IdentifyReport) { report.Identify(w, rep) }

// ScenarioMatrix returns the standard backend×workload scenario
// matrix, seeded with seed.
func ScenarioMatrix(seed int64) []Scenario { return scenario.Matrix(seed) }

// Re-exported fault-injection types (see internal/fault): a FaultSpec
// declaratively degrades a Scenario (Scenario.Injections) with
// deterministic disk errors, latency spikes, cache thrash, or a
// misbehaving daemon, producing a reproducibly degraded world under
// the same scenario name.
type (
	// FaultSpec is a declarative fault-injection program.
	FaultSpec = fault.Spec

	// DiskFaults injects disk read errors, latency spikes, and slow
	// writes.
	DiskFaults = fault.DiskFaults

	// CacheThrash forcibly evicts the page cache on a fixed period.
	CacheThrash = fault.CacheThrash

	// HogDaemon is a misbehaving daemon that burns CPU and optionally
	// camps on a file's inode lock.
	HogDaemon = fault.HogDaemon
)

// FaultPreset returns the named canned fault program (false for an
// unknown name); FaultPresets lists the available names.
func FaultPreset(name string) (*FaultSpec, bool) { return fault.Preset(name) }

// FaultPresets lists the canned fault-program names in sorted order.
func FaultPresets() []string { return fault.PresetNames() }

// Re-exported anomaly-watch types (see internal/watch): the watch
// engine turns differential analysis into a continuous verdict —
// ok, degraded (attributed to a corpus label), or anomaly.
type (
	// WatchEngine evaluates runs against baselines and the corpus.
	WatchEngine = watch.Engine

	// WatchReport is one watch evaluation's verdict with evidence.
	WatchReport = watch.Report

	// WatchVerdict is the outcome ladder: ok, degraded, anomaly.
	WatchVerdict = watch.Verdict
)

// Watch verdicts.
const (
	WatchOK       = watch.OK
	WatchDegraded = watch.Degraded
	WatchAnomaly  = watch.Anomaly
)

// NewWatch returns a watch engine with the default differential and
// classification parameters.
func NewWatch() *WatchEngine { return watch.New() }

// RenderWatch writes a watch verdict with its drifted operations and
// nearest corpus labels.
func RenderWatch(w io.Writer, rep *WatchReport) { report.Watch(w, rep) }

// Re-exported streaming-summary types (see internal/summary): the
// alloc-free digest tier — per-profile quantiles (p50→p999), peak
// structure, and set-level hottest operations — that the diff engine,
// the classifier, and the service consult before any exact analysis.
type (
	// ProfileSummary is one profile's fixed-size digest.
	ProfileSummary = summary.Summary

	// ProfileSetSummary digests a whole set, with its hottest
	// operations by count and by total latency.
	ProfileSetSummary = summary.SetSummary
)

// Summarize digests one profile: quantiles, peak structure, mode
// bucket, and rate, without walking the set twice or allocating.
func Summarize(p *Profile) ProfileSummary { return summary.Of(p) }

// SummarizeSet digests every operation of s plus the k hottest
// operations (the package default when k is negative).
func SummarizeSet(s *Set, k int) *ProfileSetSummary { return summary.OfSet(s, k) }

// RenderSummary writes the digest as a per-operation quantile table
// with the hottest operations.
func RenderSummary(w io.Writer, ss *ProfileSetSummary) { report.RenderSummary(w, report.SummaryOf(ss)) }

// Package serve implements the osprof profile service: a long-running
// HTTP/JSON facade over the content-addressed run archive
// (internal/store) and the differential engine (internal/diff), so the
// record/baseline/diff workflow works over the network. Live programs
// instrumented with the Recorder API export versioned run envelopes
// and POST them to /v1/ingest; CI gates and dashboards then list runs,
// bless baselines, and ask for pairwise diffs without sharing a
// filesystem with the producer — the "profile millions of live
// requests, compare centrally" deployment the paper's negligible
// overhead makes possible (§3.1, §5).
//
// Endpoints:
//
//	POST /v1/ingest        body: one or more concatenated envelopes —
//	                       full osprof-run (or bare osprof-set)
//	                       envelopes and osprof-run-delta increments,
//	                       in any mix. A single full-run body answers
//	                       the original osprof-ingest/v1 document; any
//	                       other body answers osprof-ingest-batch/v1
//	                       with one result per envelope. Deltas
//	                       coalesce in memory and reach the archive at
//	                       the next flush. Oversized bodies or batches
//	                       are 413; a request refused entirely by
//	                       coalescer backpressure is 429.
//	POST /v1/flush         archive every coalesced accumulation now;
//	                       answers osprof-flush/v1
//	GET  /v1/runs          the archive index as osprof-runs/v1 JSON,
//	                       cursor-paged: ?limit= bounds the page
//	                       (default/cap 1000), ?after=<seq> resumes
//	                       past a previous page; ?summary=1 adds the
//	                       per-run triage column (ops, totals, p50/
//	                       p99/p999, hottest op) from memoized digests
//	GET  /v1/summary       ?ref=<run reference>: the run's streaming
//	                       set digest (per-op quantiles, hottest ops)
//	                       as osprof-summary/v1, memoized per content
//	                       address
//	GET  /v1/diff/{a}/{b}  differential analysis of two run references
//	                       (latest:<name>, baseline:<name>, or a run-ID
//	                       prefix), as osprof-diff/v1 JSON; references
//	                       whose name contains a slash (every scenario
//	                       name does) use GET /v1/diff?a=...&b=...
//	GET  /v1/baseline      the blessed baselines as osprof-baselines/v1
//	                       JSON
//	POST /v1/baseline      bless a run: {"fingerprint": "...", "run":
//	                       "<ref>"} (fingerprint defaults to the
//	                       referenced run's own)
//	POST /v1/identify      body: an osprof-run (or bare osprof-set)
//	                       envelope; classifies it against the corpus
//	                       of labeled archived runs, returning an
//	                       osprof-identify/v1 verdict (a clean
//	                       abstention — empty corpus, foreign
//	                       configuration, ambiguous labels — is still
//	                       200; only an unparseable body is 400)
//	POST /v1/watch         register a continuous watch: {"name":
//	                       "<run name>", "baseline": "<ref, optional;
//	                       default baseline:<name>>"}. Every later
//	                       ingest of a run with that name is evaluated
//	                       against the baseline (diff, then degraded-
//	                       state attribution against the labeled
//	                       corpus) and the osprof-watch/v1 verdict
//	                       rides in the ingest response
//	GET  /v1/watch         the registered watches and their latest
//	                       verdicts as osprof-watch-list/v1 JSON
package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/report"
	"osprof/internal/store"
	"osprof/internal/watch"
)

// maxEnvelopeBytes bounds an ingested envelope. Profiles are tiny by
// design (under 1KB per operation, §5.1), so even a run with thousands
// of operations fits comfortably; the bound exists to shed abusive
// payloads before parsing.
const maxEnvelopeBytes = 16 << 20

// IngestSchema versions the /v1/ingest response document.
const IngestSchema = "osprof-ingest/v1"

// IngestDoc is the /v1/ingest response: the archived run's identity,
// plus the watch verdict when a watch is registered for the run's name.
type IngestDoc struct {
	Schema      string `json:"schema"`
	ID          string `json:"id"`
	Created     bool   `json:"created"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Name        string `json:"name"`

	// Watch is the continuous-anomaly verdict for this ingest (only
	// when a watch is registered for Name).
	Watch *watch.Report `json:"watch,omitempty"`
}

// ErrorDoc is the JSON error body for non-2xx responses.
type ErrorDoc struct {
	Error string `json:"error"`
}

// server carries the shared archive behind the handlers, plus the
// memoized identification corpus (see identifyCorpus), the watch
// registry, and the delta coalescer (coalesce.go).
type server struct {
	arch *store.Archive
	opts Options

	mu        sync.Mutex
	corpusKey corpusKey
	corpus    *classify.Corpus
	watches   map[string]*watchEntry // by watched run name
	order     []string               // registration order

	// digests memoizes per-run set summaries by content address
	// (summary.go); digestList orders entries most-recently-used
	// first, driving LRU eviction, and the counters witness the
	// memo's effectiveness.
	digests      map[string]*list.Element
	digestList   *list.List
	digestHits   uint64
	digestMisses uint64

	// cmu guards the coalescer: per-fingerprint delta accumulations.
	// Separate from mu so slow corpus builds never block ingest.
	cmu    sync.Mutex
	accums map[string]*accum // by fingerprint
}

// Handler returns the service's HTTP handler over arch with default
// Options. Deployments that need the coalescer lifecycle (periodic
// age-based flushing, flush-on-shutdown) use New and the Server type
// instead.
func Handler(arch *store.Archive) http.Handler {
	return New(arch, Options{}).Handler()
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.ingest)
	mux.HandleFunc("POST /v1/flush", s.flushHandler)
	mux.HandleFunc("GET /v1/runs", s.runs)
	mux.HandleFunc("GET /v1/summary", s.summaryHandler)
	mux.HandleFunc("GET /v1/diff/{a}/{b}", s.diff)
	mux.HandleFunc("GET /v1/diff", s.diff) // ?a=&b= for slash-qualified names
	mux.HandleFunc("GET /v1/baseline", s.baselines)
	mux.HandleFunc("POST /v1/baseline", s.setBaseline)
	mux.HandleFunc("POST /v1/identify", s.identify)
	mux.HandleFunc("POST /v1/watch", s.setWatch)
	mux.HandleFunc("GET /v1/watch", s.listWatches)
	return mux
}

// respond writes v as the JSON body with the given status.
func respond(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = report.JSON(w, v)
}

// fail writes a JSON error body.
func fail(w http.ResponseWriter, status int, format string, args ...any) {
	respond(w, status, ErrorDoc{Error: fmt.Sprintf(format, args...)})
}

// resolve loads the run a reference names: latest:<name>,
// baseline:<name>, or a run-ID prefix (store.Archive.ResolveRef, the
// same resolver the CLI uses).
func (s *server) resolve(ref string) (*core.Run, error) {
	id, err := s.arch.ResolveRef(ref)
	if err != nil {
		return nil, err
	}
	return s.arch.Get(id)
}

// diff runs the differential analysis of two referenced runs. The
// references come from the path segments or, for names that contain
// slashes (every scenario name does — "ext2/readzero"), from the
// ?a=&b= query parameters, since a path segment cannot hold an
// unescaped slash. The engine reuses scratch state, so each request
// gets its own. The summary-first engine answers healthy pairs from
// digests alone (verdict parity with the full engine is pinned by the
// diff package's parity gate).
func (s *server) diff(w http.ResponseWriter, r *http.Request) {
	refA, refB := r.PathValue("a"), r.PathValue("b")
	if refA == "" {
		refA, refB = r.URL.Query().Get("a"), r.URL.Query().Get("b")
	}
	if refA == "" || refB == "" {
		fail(w, http.StatusBadRequest, "diff needs two run references: /v1/diff/{a}/{b} or /v1/diff?a=...&b=...")
		return
	}
	a, err := s.resolve(refA)
	if err != nil {
		fail(w, http.StatusNotFound, "run A: %v", err)
		return
	}
	b, err := s.resolve(refB)
	if err != nil {
		fail(w, http.StatusNotFound, "run B: %v", err)
		return
	}
	respond(w, http.StatusOK, diff.NewSummaryFirst().Runs(a, b))
}

// corpusKey identifies an archive index state for the corpus memo:
// the entry count plus the newest entry's identity.
type corpusKey struct {
	n   int
	seq int
	id  string
}

// identifyCorpus returns the identification corpus, rebuilding it only
// when the archive index changed since the last build. Ingests may add
// labeled runs at any time, but an unchanged index means an unchanged
// corpus, so the common case (many identifications between ingests)
// reads the index length and newest entry in O(1), whatever the
// archive size, instead of loading every archived object per request.
// The key covers the entry count plus the last entry's identity: any
// Put appends (new last entry) and any GC removes entries (count or
// last entry changes), so a stale hit would need an index with the
// same length and the same newest run, which is the same corpus.
func (s *server) identifyCorpus() (*classify.Corpus, error) {
	n, newest := s.arch.Tail()
	key := corpusKey{n: n, seq: newest.Seq, id: newest.ID}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.corpus != nil && s.corpusKey == key {
		return s.corpus, nil
	}
	corpus, _, err := classify.FromArchive(s.arch)
	if err != nil {
		return nil, err
	}
	s.corpusKey, s.corpus = key, corpus
	return corpus, nil
}

// identify classifies a posted run envelope against the corpus of
// labeled archived runs (memoized per index state; a fresh classifier
// per request keeps the handler safe for any number of in-flight
// identifications). The classifier pre-filters by summary distance
// (label/abstention parity with the exhaustive evaluation is pinned by
// the classify package's crossval gate). Garbage bodies are the
// client's fault (400); everything after the parse — including an
// archive with no labeled runs at all — answers with a verdict
// document, because an abstention is a result, not an error.
func (s *server) identify(w http.ResponseWriter, r *http.Request) {
	run, err := core.ReadRun(http.MaxBytesReader(w, r.Body, maxEnvelopeBytes))
	if err != nil {
		fail(w, http.StatusBadRequest, "parse run envelope: %v", err)
		return
	}
	corpus, err := s.identifyCorpus()
	if err != nil {
		fail(w, http.StatusInternalServerError, "corpus: %v", err)
		return
	}
	c := classify.New()
	c.Prefilter = classify.DefaultPrefilter
	respond(w, http.StatusOK, c.Identify(corpus, run))
}

// baselines lists the blessed baseline pointers.
func (s *server) baselines(w http.ResponseWriter, r *http.Request) {
	m, err := s.arch.Baselines()
	if err != nil {
		fail(w, http.StatusInternalServerError, "archive: %v", err)
		return
	}
	respond(w, http.StatusOK, report.BaselineList(m))
}

// baselineRequest is the POST /v1/baseline body.
type baselineRequest struct {
	// Fingerprint keys the baseline; when empty, the referenced run's
	// own fingerprint is used (the common case: bless what was just
	// ingested).
	Fingerprint string `json:"fingerprint"`

	// Run references the run to bless: latest:<name>, baseline:<name>,
	// or a run-ID prefix.
	Run string `json:"run"`
}

// setBaseline blesses a run as the baseline for its fingerprint.
func (s *server) setBaseline(w http.ResponseWriter, r *http.Request) {
	var req baselineRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "parse baseline request: %v", err)
		return
	}
	if req.Run == "" {
		fail(w, http.StatusBadRequest, "baseline request needs a run reference")
		return
	}
	id, err := s.arch.ResolveRef(req.Run)
	if err != nil {
		fail(w, http.StatusNotFound, "run: %v", err)
		return
	}
	fp := req.Fingerprint
	if fp == "" {
		run, err := s.arch.Get(id)
		if err != nil {
			fail(w, http.StatusNotFound, "run: %v", err)
			return
		}
		fp = run.Fingerprint
	}
	if err := s.arch.SetBaseline(fp, id); err != nil {
		fail(w, http.StatusBadRequest, "set baseline: %v", err)
		return
	}
	respond(w, http.StatusOK, report.BaselineEntry{Fingerprint: fp, Run: id})
}

// Batched ingest and server-side delta coalescing: the fleet-scale
// half of the service. A recorder fleet reporting every interval would
// turn each tiny delta into an archive write; instead, POST /v1/ingest
// accepts any number of concatenated envelopes per request (full runs,
// incremental deltas, bare sets) and answers with one result per
// envelope, while same-fingerprint deltas merge into a bounded
// in-memory accumulator and only reach the archive when a flush
// threshold trips — size (envelopes merged), age (oldest unarchived
// merge), an explicit POST /v1/flush, or server shutdown. One archive
// append per flush instead of one per report: the write amplification
// drops by the coalescing factor while verdicts and dedup stay exactly
// as if every state had been ingested serially.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"osprof/internal/core"
	"osprof/internal/report"
	"osprof/internal/store"
	"osprof/internal/watch"
)

// IngestBatchSchema versions the batched /v1/ingest response document.
const IngestBatchSchema = "osprof-ingest-batch/v1"

// FlushSchema versions the POST /v1/flush response document.
const FlushSchema = "osprof-flush/v1"

// Batch item statuses.
const (
	StatusArchived  = "archived"  // full envelope written to the archive
	StatusCoalesced = "coalesced" // delta merged in memory, archived at next flush
	StatusError     = "error"     // this envelope was rejected (others may have landed)
)

// BatchItemDoc is one envelope's outcome inside a batched ingest
// response, aligned by position with the request's envelopes.
type BatchItemDoc struct {
	Status      string `json:"status"`
	ID          string `json:"id,omitempty"` // content address (archived only)
	Created     bool   `json:"created,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Name        string `json:"name,omitempty"`
	Seq         int    `json:"seq,omitempty"` // delta chain position (deltas only)
	Error       string `json:"error,omitempty"`

	// Watch is the continuous-anomaly verdict (archived envelopes with
	// a registered watch; coalesced deltas are evaluated at flush and
	// surface via GET /v1/watch).
	Watch *watch.Report `json:"watch,omitempty"`
}

// IngestBatchDoc is the batched /v1/ingest response.
type IngestBatchDoc struct {
	Schema  string         `json:"schema"`
	Results []BatchItemDoc `json:"results"`

	// Flushed counts coalesced accumulations this request pushed into
	// the archive (size threshold crossings and chain restarts).
	Flushed int `json:"flushed"`
}

// FlushDoc is the POST /v1/flush response.
type FlushDoc struct {
	Schema  string `json:"schema"`
	Flushed int    `json:"flushed"`
}

// Options tunes the ingest service. The zero value picks the defaults
// noted per field.
type Options struct {
	// MaxPendingChains bounds how many distinct delta chains
	// (fingerprints) the coalescer holds in memory; a new chain beyond
	// the bound is refused (429-style backpressure). Default 256.
	MaxPendingChains int

	// FlushEnvelopes is the size threshold: an accumulation that has
	// merged this many envelopes since its last archive write is
	// flushed at the end of the request. Default 64.
	FlushEnvelopes int

	// FlushAge is the age threshold used by FlushOverdue (driven by
	// the serve command's ticker): an accumulation whose oldest
	// unarchived merge is older gets flushed. Default 2s.
	FlushAge time.Duration

	// MaxBatch bounds the number of envelopes in one request body.
	// Default 1024.
	MaxBatch int

	// MaxBodyBytes bounds the request body (413 beyond). Default 16MB.
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxPendingChains <= 0 {
		o.MaxPendingChains = 256
	}
	if o.FlushEnvelopes <= 0 {
		o.FlushEnvelopes = 64
	}
	if o.FlushAge <= 0 {
		o.FlushAge = 2 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = maxEnvelopeBytes
	}
	return o
}

// Server is the profile service with an explicit lifecycle: its
// coalescer holds merged-but-unarchived delta state, so long-running
// deployments drive FlushOverdue from a ticker and Close on shutdown.
// The plain Handler function covers handler-only uses (tests, examples)
// where deltas still flush on the size threshold and POST /v1/flush.
type Server struct {
	s *server
}

// New builds the service over arch with the given options.
func New(arch *store.Archive, opts Options) *Server {
	return &Server{s: &server{
		arch:    arch,
		opts:    opts.withDefaults(),
		watches: make(map[string]*watchEntry),
		accums:  make(map[string]*accum),
	}}
}

// Handler returns the service's HTTP handler. The archive and the
// coalescer are safe for concurrent use, so one handler serves any
// number of in-flight requests.
func (sv *Server) Handler() http.Handler { return sv.s.handler() }

// Flush archives every accumulation holding unarchived merges and
// returns how many were written.
func (sv *Server) Flush() (int, error) { return sv.s.flush(false) }

// FlushOverdue archives the accumulations whose oldest unarchived
// merge is older than Options.FlushAge — the periodic tick that bounds
// how stale the archive can run behind the fleet.
func (sv *Server) FlushOverdue() (int, error) { return sv.s.flush(true) }

// Close flushes all pending state. The handler keeps working after
// Close; the call exists so shutdown cannot strand coalesced deltas.
func (sv *Server) Close() error {
	_, err := sv.s.flush(false)
	return err
}

// accum is one delta chain's server-side accumulation: the replayed
// full state plus flush bookkeeping.
type accum struct {
	run     *core.Run
	lastSeq int       // last applied delta seq
	dirty   int       // envelopes merged since the last archive write
	oldest  time.Time // arrival of the first unarchived merge
}

// ingest handles POST /v1/ingest: one or many concatenated envelopes.
// A single full-run body keeps the original osprof-ingest/v1 response
// shape; everything else answers osprof-ingest-batch/v1. The body is
// parsed completely before any state changes, so a malformed batch is
// rejected whole (400/413) rather than half-applied.
func (s *server) ingest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var envs []core.Envelope
	rd := core.NewEnvelopeReader(bytes.NewReader(body))
	for {
		env, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(w, http.StatusBadRequest, "parse run envelope %d: %v", len(envs)+1, err)
			return
		}
		if len(envs) >= s.opts.MaxBatch {
			fail(w, http.StatusRequestEntityTooLarge, "batch exceeds %d envelopes", s.opts.MaxBatch)
			return
		}
		envs = append(envs, env)
	}
	if len(envs) == 0 {
		fail(w, http.StatusBadRequest, "empty batch: no envelopes in body")
		return
	}

	// Back-compat: a single full-run body is the original ingest and
	// keeps its response shape (clients and CI smoke decode it).
	if len(envs) == 1 && envs[0].Run != nil {
		run := envs[0].Run
		id, created, err := s.arch.Put(run)
		if err != nil {
			fail(w, http.StatusInternalServerError, "archive: %v", err)
			return
		}
		respond(w, http.StatusOK, IngestDoc{
			Schema:      IngestSchema,
			ID:          id,
			Created:     created,
			Fingerprint: run.Fingerprint,
			Name:        run.Name(),
			Watch:       s.evaluateWatch(run),
		})
		return
	}
	s.ingestBatch(w, envs)
}

// ingestBatch applies a parsed envelope batch: full runs are queued
// for one archive PutBatch, deltas coalesce into their chains, and
// accumulations that cross the size threshold (or get restarted by a
// new chain) join the same PutBatch. Per-envelope failures are item
// results, not request failures; the request only answers 429 when
// backpressure refused every envelope.
func (s *server) ingestBatch(w http.ResponseWriter, envs []core.Envelope) {
	items := make([]BatchItemDoc, len(envs))
	var put []*core.Run // runs to archive, in arrival order
	var putItem []int   // items[i] per put entry; -1 for a coalescer flush
	applied, refused := 0, 0

	s.cmu.Lock()
	flushReady := make(map[string]bool)
	for i, env := range envs {
		if env.Run != nil {
			items[i] = BatchItemDoc{
				Status: StatusArchived, Fingerprint: env.Run.Fingerprint, Name: env.Run.Name(),
			}
			put = append(put, env.Run)
			putItem = append(putItem, i)
			applied++
			continue
		}
		d := env.Delta
		ac := s.accums[d.Fingerprint]
		if d.Seq == 1 {
			// A chain restart: archive what the previous incarnation
			// accumulated, then start fresh.
			if ac != nil && ac.dirty > 0 {
				put = append(put, ac.run.Clone())
				putItem = append(putItem, -1)
			}
			if ac == nil && len(s.accums) >= s.opts.MaxPendingChains {
				items[i] = BatchItemDoc{
					Status: StatusError, Fingerprint: d.Fingerprint, Seq: d.Seq,
					Error: fmt.Sprintf("coalescer full (%d chains pending); retry later", len(s.accums)),
				}
				refused++
				continue
			}
			ac = &accum{run: &core.Run{}}
			s.accums[d.Fingerprint] = ac
		} else if ac == nil {
			items[i] = BatchItemDoc{
				Status: StatusError, Fingerprint: d.Fingerprint, Seq: d.Seq,
				Error: fmt.Sprintf("unknown delta chain (seq %d with no accumulated state): restart the chain at seq 1", d.Seq),
			}
			continue
		} else if d.Seq != ac.lastSeq+1 {
			items[i] = BatchItemDoc{
				Status: StatusError, Fingerprint: d.Fingerprint, Seq: d.Seq,
				Error: fmt.Sprintf("out-of-order delta: got seq %d, want %d", d.Seq, ac.lastSeq+1),
			}
			continue
		}
		if err := ac.run.Apply(d); err != nil {
			items[i] = BatchItemDoc{
				Status: StatusError, Fingerprint: d.Fingerprint, Seq: d.Seq,
				Error: fmt.Sprintf("apply delta: %v", err),
			}
			continue
		}
		if ac.dirty == 0 {
			ac.oldest = time.Now()
		}
		ac.dirty++
		ac.lastSeq = d.Seq
		applied++
		items[i] = BatchItemDoc{
			Status: StatusCoalesced, Fingerprint: d.Fingerprint, Name: ac.run.Name(), Seq: d.Seq,
		}
		if ac.dirty >= s.opts.FlushEnvelopes {
			flushReady[d.Fingerprint] = true
		}
	}
	for fp := range flushReady {
		ac := s.accums[fp]
		put = append(put, ac.run.Clone())
		putItem = append(putItem, -1)
		ac.dirty = 0
	}
	s.cmu.Unlock()

	flushed := 0
	if len(put) > 0 {
		results, err := s.arch.PutBatch(put)
		if err != nil {
			fail(w, http.StatusInternalServerError, "archive: %v", err)
			return
		}
		for j, res := range results {
			if putItem[j] >= 0 {
				it := &items[putItem[j]]
				it.ID, it.Created = res.ID, res.Created
				it.Watch = s.evaluateWatch(put[j])
			} else {
				flushed++
				s.evaluateWatch(put[j])
			}
		}
	}

	status := http.StatusOK
	if refused > 0 && applied == 0 {
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	}
	respond(w, status, IngestBatchDoc{Schema: IngestBatchSchema, Results: items, Flushed: flushed})
}

// flush archives pending accumulations — all of them, or only the
// overdue ones (older than FlushAge since their first unarchived
// merge). Chain state stays resident so the chains continue; only the
// dirty counters reset.
func (s *server) flush(overdueOnly bool) (int, error) {
	s.cmu.Lock()
	var runs []*core.Run
	for _, ac := range s.accums {
		if ac.dirty == 0 {
			continue
		}
		if overdueOnly && time.Since(ac.oldest) < s.opts.FlushAge {
			continue
		}
		runs = append(runs, ac.run.Clone())
		ac.dirty = 0
	}
	s.cmu.Unlock()
	if len(runs) == 0 {
		return 0, nil
	}
	if _, err := s.arch.PutBatch(runs); err != nil {
		return 0, err
	}
	for _, r := range runs {
		s.evaluateWatch(r)
	}
	return len(runs), nil
}

// flushHandler handles POST /v1/flush: archive everything the
// coalescer holds. Tests and drain scripts use it to make "all deltas
// shipped so far" durable at a known point.
func (s *server) flushHandler(w http.ResponseWriter, r *http.Request) {
	n, err := s.flush(false)
	if err != nil {
		fail(w, http.StatusInternalServerError, "flush: %v", err)
		return
	}
	respond(w, http.StatusOK, FlushDoc{Schema: FlushSchema, Flushed: n})
}

// runs handles GET /v1/runs with cursor paging: ?after=<seq> resumes
// past a previous page's last sequence number and ?limit= bounds the
// page (default and cap defaultRunsLimit, so an unbounded archive
// cannot be asked for in one response). The response marks truncation
// and carries the next cursor. ?label= restricts the listing to runs
// carrying that corpus label, composing with the cursor: the Seq
// cursor pages the filtered sequence.
func (s *server) runs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultRunsLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			fail(w, http.StatusBadRequest, "limit: want a positive integer, got %q", v)
			return
		}
		if n < limit {
			limit = n
		}
	}
	after := 0
	if v := q.Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			fail(w, http.StatusBadRequest, "after: want a non-negative sequence number, got %q", v)
			return
		}
		after = n
	}
	entries, more, err := s.arch.ListPage(q.Get("label"), after, limit)
	if err != nil {
		fail(w, http.StatusInternalServerError, "archive: %v", err)
		return
	}
	doc := report.RunPage(entries, more)
	if v := q.Get("summary"); v != "" && v != "0" {
		// The opt-in triage column, from memoized digests (summary.go):
		// a listing-with-summaries re-poll touches the archive index
		// only. Best-effort per entry — a run GC'd between the index
		// read and the digest load just misses its column.
		for i := range doc.Runs {
			if d, err := s.digest(doc.Runs[i].ID); err == nil {
				doc.Runs[i].Summary = report.RunSummaryOf(d.ss)
			}
		}
	}
	respond(w, http.StatusOK, doc)
}

// defaultRunsLimit caps a GET /v1/runs page.
const defaultRunsLimit = 1000

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/live"
	"osprof/internal/serve"
	"osprof/internal/store"
	"osprof/internal/summary"
	"osprof/internal/watch"
)

// The ingest workload is the fleet write path: closed-loop recorders
// POSTing batches of delta envelopes to /v1/ingest, with a full run for
// a watched name every eighth request, and a final /v1/flush. Decode,
// delta merge, the coalescer, Archive.PutBatch and watch evaluation
// all run; nothing is simulated.

const (
	sessionsPerClient = 32 // 2 clients x 32 = 64 delta chains, under the 256-chain bound
	deltasPerRequest  = 16
	obsPerDelta       = 4
	fullEvery         = 8 // request k%8 == 7 ships a full watched run
	watchedVariants   = 4 // distinct full reports cycled per client
	replayPerClient   = 2500
	flushEnvelopes    = 64 // serve.Options.FlushEnvelopes default: the coalescer's size threshold
)

// ingestRequests is how many measured requests each client sends per
// phase: fixed work sized from --seconds, so the request bodies can be
// made before they are timed.
func ingestRequests(seconds int) int { return 900 * seconds }

// Request kinds of the ingest workload.
const (
	deltaBatch = iota
	fullRun
)

// ingestGen makes everything the ingest clients send from the seed.
// Two generators of one seed make the same bodies, so each phase makes
// its own, one round at a time, and only a round's bodies are held at
// once.
type ingestGen struct {
	full     [][][]byte // [client][variant] encoded full watched runs; variant 0 is blessed
	warm     [][][]byte // [client] warm-up request bodies
	sessions [][]*live.Session
	obs      [][]*observer
	next     []int // per client: the next session in round-robin order
	sent     []int // per client: measured requests made so far
}

// newIngestGen makes the full runs and the warm-up: per client, 32 live
// sessions fed by seeded observers. Each delta chain starts at a phase
// drawn from the seed within the coalescer's 64-envelope flush cycle,
// as independent recorders would: the warm-up ships each chain's first
// phase deltas, so chains reach the size threshold at unrelated points
// and a request can carry several flushes, or none.
func newIngestGen(seed int64) (*ingestGen, error) {
	n := clients()
	g := &ingestGen{full: make([][][]byte, n), warm: make([][][]byte, n),
		sessions: make([][]*live.Session, n), obs: make([][]*observer, n), next: make([]int, n), sent: make([]int, n)}
	rng := rand.New(rand.NewSource(seed*6007 + 11))
	for c := 0; c < n; c++ {
		for v := 0; v < watchedVariants; v++ {
			var buf bytes.Buffer
			if err := core.WriteRun(&buf, watchedRun(seed, c, v)); err != nil {
				return nil, err
			}
			g.full[c] = append(g.full[c], buf.Bytes())
		}
		for j := 0; j < sessionsPerClient; j++ {
			g.sessions[c] = append(g.sessions[c], live.New().Session(nil, fmt.Sprintf("osbench/s%d-c%d-%02d", seed, c, j)))
			g.obs[c] = append(g.obs[c], newObserver(seed, c, j))
		}
		start := make([]int, sessionsPerClient)
		for i := range start {
			start[i] = rng.Intn(flushEnvelopes)
		}
		var queue []int
		for r := 0; r < flushEnvelopes; r++ {
			for i := range start {
				if r < start[i] {
					queue = append(queue, i)
				}
			}
		}
		for len(queue) > 0 {
			k := min(deltasPerRequest, len(queue))
			body, err := g.deltas(c, queue[:k])
			if err != nil {
				return nil, err
			}
			queue = queue[k:]
			g.warm[c] = append(g.warm[c], body)
		}
	}
	return g, nil
}

// deltas is a request body in which each listed session of client c
// observes a few operations and exports its delta.
func (g *ingestGen) deltas(c int, sessions []int) ([]byte, error) {
	var buf bytes.Buffer
	for _, i := range sessions {
		for m := 0; m < obsPerDelta; m++ {
			g.sessions[c][i].Recorder().Observe(g.obs[c][i].next())
		}
		if err := g.sessions[c][i].ExportDelta(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// calls makes each client's next n measured requests: 16 deltas of the
// next sessions in round-robin order, and every eighth request a full
// watched run instead.
func (g *ingestGen) calls(n int) ([][]call, error) {
	out := make([][]call, len(g.sessions))
	for c := range out {
		for ; len(out[c]) < n; g.sent[c]++ {
			k := g.sent[c]
			if k%fullEvery == fullEvery-1 {
				out[c] = append(out[c], call{method: "POST", path: "/v1/ingest",
					body: g.full[c][(k/fullEvery)%watchedVariants], ops: 1, kind: fullRun, ref: k, keep: true})
				continue
			}
			which := make([]int, deltasPerRequest)
			for j := range which {
				which[j] = g.next[c]
				g.next[c] = (g.next[c] + 1) % sessionsPerClient
			}
			body, err := g.deltas(c, which)
			if err != nil {
				return nil, err
			}
			out[c] = append(out[c], call{method: "POST", path: "/v1/ingest",
				body: body, ops: deltasPerRequest, kind: deltaBatch, ref: k, keep: true})
		}
	}
	return out, nil
}

// setup starts a service over a fresh archive, blesses a baseline and
// registers a watch for each client's watched name, and sends the
// warm-up.
func (g *ingestGen) setup(tmp string) (*stack, error) {
	arch, err := openFresh(tmp)
	if err != nil {
		return nil, err
	}
	st, err := startStack(arch)
	if err != nil {
		os.RemoveAll(arch.Dir())
		return nil, err
	}
	if err := g.prepare(st); err != nil {
		removeStack(st)
		return nil, err
	}
	return st, nil
}

func (g *ingestGen) prepare(st *stack) error {
	for c := range g.full {
		name := watchedName(c)
		if _, err := st.mustOK("POST", "/v1/ingest", g.full[c][0]); err != nil {
			return err
		}
		if _, err := st.mustOK("POST", "/v1/baseline", []byte(fmt.Sprintf(`{"run": "latest:%s"}`, name))); err != nil {
			return err
		}
		if _, err := st.mustOK("POST", "/v1/watch", []byte(fmt.Sprintf(`{"name": %q}`, name))); err != nil {
			return err
		}
	}
	for _, bodies := range g.warm {
		for _, b := range bodies {
			if _, err := st.mustOK("POST", "/v1/ingest", b); err != nil {
				return err
			}
		}
	}
	return nil
}

// removeStack stops a service and removes its archive.
func removeStack(st *stack) {
	st.close()
	os.RemoveAll(st.arch.Dir())
}

// tally counts a round's envelopes and fails every one not
// acknowledged, and counts the 429 and 413 answers.
type tally struct {
	res               *results
	refused, rejected int
}

func (t *tally) check(calls [][]call, replies [][]reply) error {
	for c := range calls {
		for k, cl := range calls[c] {
			r := replies[c][k]
			t.res.attempted += cl.ops
			switch r.code {
			case http.StatusTooManyRequests:
				t.refused++
			case http.StatusRequestEntityTooLarge:
				t.rejected++
			}
			if got := ackCount(r.code, r.body, cl.kind == fullRun); got != cl.ops {
				t.res.fail(cl.ops, "client %d request %d: %d of %d envelopes acknowledged (status %d: %.200s)", c, cl.ref, got, cl.ops, r.code, r.body)
			}
		}
	}
	return nil
}

// measure sends the measured requests to web, over HTTP, and when
// direct is not nil also straight into its handler (see runRounds),
// checking every acknowledgement. Then it flushes each service's
// coalescer and checks parity: each session's full export must dedup
// against the state the server coalesced from its delta chain.
func measure(g *ingestGen, perClient int, web, direct *stack, t *tally) (httpPh, serverPh *phase, err error) {
	httpPh, serverPh, err = runRounds(web, direct, func(int) ([][]call, error) { return g.calls(perClient / phaseRounds) }, t.check)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range []*stack{web, direct} {
		if st == nil {
			continue
		}
		if _, err := st.mustOK("POST", "/v1/flush", nil); err != nil {
			return nil, nil, err
		}
		for _, ss := range g.sessions {
			for _, sess := range ss {
				var buf bytes.Buffer
				if err := sess.Export(&buf); err != nil {
					return nil, nil, err
				}
				t.res.attempted++
				code, out, err := st.do("POST", "/v1/ingest", buf.Bytes())
				if err != nil {
					return nil, nil, err
				}
				var doc serve.IngestDoc
				if code != http.StatusOK || json.Unmarshal(out, &doc) != nil || doc.Created {
					t.res.fail(1, "parity: %s full export did not dedup against its coalesced chain (status %d)", sess.Name(), code)
				}
			}
		}
	}
	return httpPh, serverPh, nil
}

// ackCount is how many envelopes a response acknowledges: archived or
// coalesced, and for a watched full run, carrying a watch verdict.
func ackCount(code int, body []byte, full bool) int {
	if code != http.StatusOK {
		return 0
	}
	if full {
		var doc serve.IngestDoc
		if json.Unmarshal(body, &doc) != nil || doc.ID == "" || doc.Watch == nil || doc.Watch.Verdict == "" {
			return 0
		}
		return 1
	}
	var doc serve.IngestBatchDoc
	if json.Unmarshal(body, &doc) != nil {
		return 0
	}
	ok := 0
	for _, it := range doc.Results {
		if it.Error == "" && (it.Status == serve.StatusCoalesced || it.Status == serve.StatusArchived) {
			ok++
		}
	}
	return ok
}

// runIngest sets the service up twice, then sends each round of
// measured requests to both: over loopback HTTP for what a recorder
// sees, and straight into the handler for the server's own CPU time
// and allocations, which BENCHMARK.json gates.
func runIngest(cfg config, res *results) error {
	g, err := newIngestGen(cfg.seed)
	if err != nil {
		return err
	}
	st, err := timeSetup(res, func() (*stack, error) { return g.setup(cfg.tmp) }, removeStack)
	if err != nil {
		return err
	}
	defer removeStack(st)
	perClient := ingestRequests(cfg.seconds)
	if cfg.trace {
		return ingestTraced(cfg, res, g, st, perClient)
	}
	direct, err := g.setup(cfg.tmp)
	if err != nil {
		return err
	}
	defer removeStack(direct)
	httpPh, serverPh, err := measure(g, perClient, st, direct, &tally{res: res})
	if err != nil {
		return err
	}
	setHTTP(res, httpPh)
	res.alias("ingest_env_per_s", "ops_per_s")
	res.alias("ingest_p50_ms", "latency_ms")
	res.alias("ingest_p99_ms", "tail_ms")
	setServer(res, serverPh)
	res.set("failed_ratio", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), nil)
	return nil
}

// ingestTraced sends the measured requests over HTTP, then replays the
// warm-up and the first measured bodies of each client in-process in
// untraced/traced pairs, the traced side with a span around every
// public function the handler calls, in the handler's order.
func ingestTraced(cfg config, res *results, g *ingestGen, st *stack, perClient int) error {
	t := &tally{res: res}
	ph, _, err := measure(g, perClient, st, nil, t)
	if err != nil {
		return err
	}
	res.set("serve.refused_429", "count", float64(t.refused), nil)
	res.set("serve.rejected_413", "count", float64(t.rejected), nil)

	// Interleave the clients' bodies; each client owns its delta
	// chains, so any interleaving keeps every chain in order.
	if g, err = newIngestGen(cfg.seed); err != nil {
		return err
	}
	calls, err := g.calls(min(perClient, replayPerClient))
	if err != nil {
		return err
	}
	logs := make([][][]byte, len(calls))
	for c := range calls {
		logs[c] = append([][]byte(nil), g.warm[c]...)
		for _, cl := range calls[c] {
			logs[c] = append(logs[c], cl.body)
		}
	}
	var bodies [][]byte
	for k := 0; ; k++ {
		added := false
		for _, log := range logs {
			if k < len(log) {
				bodies = append(bodies, log[k])
				added = true
			}
		}
		if !added {
			break
		}
	}
	var alloc allocMeter
	var envelopes, written int
	trs, off, on, err := pairedReplays(cfg.seed, func(tr *tracer) (time.Duration, error) {
		rp, err := newReplayer(cfg, tr)
		if err != nil {
			return 0, err
		}
		defer rp.close()
		if tr == nil {
			alloc.start()
		}
		t0 := time.Now()
		for k, b := range bodies {
			if err := rp.request(b, int64(k)); err != nil {
				return 0, err
			}
		}
		wall := time.Since(t0)
		if tr == nil {
			alloc.stop()
			envelopes += rp.envelopes
		} else {
			written = rp.written
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	self := mergedSelf(trs, "ingest")
	res.set("core.decode_us", "us", self["core.decode"].mean(time.Microsecond), nil)
	res.set("core.apply_us", "us", self["core.apply"].mean(time.Microsecond), nil)
	res.set("store.putbatch_ms", "ms", self["store.putbatch"].mean(time.Millisecond), nil)
	res.set("watch.evaluate_ms", "ms", self["watch.evaluate"].mean(time.Millisecond), nil)
	res.set("store.writes_per_env", "ratio", float64(written)/float64(max(envelopes/replayPairs, 1)), nil)
	res.set("ingest.alloc_bytes_per_env", "B", float64(alloc.bytes)/float64(max(envelopes, 1)), nil)
	res.set("ingest.allocs_per_env", "count", float64(alloc.objects)/float64(max(envelopes, 1)), nil)
	res.set("serve.http_residual_us", "us",
		1000*(lats(ph.samples).pct(0.5)-mergedRoots(trs, "ingest").pct(0.5)), nil)
	setOverhead(res, "osbench.span_overhead_pct", pairedOverhead(off, on))
	return trs[0].write(filepath.Join(buildDir, "spans"), fmt.Sprintf("ingest-seed%d.tsv", cfg.seed))
}

// replayer applies ingest request bodies in-process through the same
// public functions, in the same order, as the /v1/ingest handler and
// its coalescer: core.NewEnvelopeReader, Run.Apply per delta,
// Archive.PutBatch for full runs and size-flushed chains, and watch
// evaluation for watched names.
type replayer struct {
	tr        *tracer
	arch      *store.Archive
	accums    map[string]*replayAccum
	digests   map[string]*summary.SetSummary // baseline digests by run ID
	envelopes int
	written   int
}

type replayAccum struct {
	run     *core.Run
	lastSeq int
	dirty   int
}

func newReplayer(cfg config, tr *tracer) (*replayer, error) {
	arch, err := openFresh(cfg.tmp)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		tr: tr, arch: arch,
		accums: map[string]*replayAccum{}, digests: map[string]*summary.SetSummary{},
	}
	for c := 0; c < clients(); c++ {
		base := watchedRun(cfg.seed, c, 0)
		id, _, err := arch.Put(base)
		if err == nil {
			err = arch.SetBaseline(base.Fingerprint, id)
		}
		if err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) close() { os.RemoveAll(rp.arch.Dir()) }

// request replays one ingest body as request req.
func (rp *replayer) request(body []byte, req int64) error {
	tr := rp.tr
	root := tr.begin("ingest", req, -1)
	defer tr.end(root)

	h := tr.begin("core.decode", req, root)
	var envs []core.Envelope
	rd := core.NewEnvelopeReader(bytes.NewReader(body))
	for {
		env, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tr.end(h)
			return fmt.Errorf("replay decode: %w", err)
		}
		envs = append(envs, env)
	}
	tr.end(h)
	rp.envelopes += len(envs)

	var put []*core.Run
	var flushReady []string
	for _, env := range envs {
		if env.Run != nil {
			put = append(put, env.Run)
			continue
		}
		d := env.Delta
		ac := rp.accums[d.Fingerprint]
		if d.Seq == 1 {
			if ac != nil && ac.dirty > 0 {
				put = append(put, ac.run.Clone())
			}
			ac = &replayAccum{run: &core.Run{}}
			rp.accums[d.Fingerprint] = ac
		} else if ac == nil || d.Seq != ac.lastSeq+1 {
			return fmt.Errorf("replay: delta chain %s out of order at seq %d", d.Fingerprint, d.Seq)
		}
		h := tr.begin("core.apply", req, root)
		err := ac.run.Apply(d)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("replay apply: %w", err)
		}
		ac.dirty++
		ac.lastSeq = d.Seq
		if ac.dirty == flushEnvelopes {
			flushReady = append(flushReady, d.Fingerprint)
		}
	}
	for _, fp := range flushReady {
		ac := rp.accums[fp]
		put = append(put, ac.run.Clone())
		ac.dirty = 0
	}
	if len(put) == 0 {
		return nil
	}
	h = tr.begin("store.putbatch", req, root)
	_, err := rp.arch.PutBatch(put)
	tr.end(h)
	if err != nil {
		return err
	}
	rp.written += len(put)
	for _, run := range put {
		if err := rp.evaluate(run, req, root); err != nil {
			return err
		}
	}
	return nil
}

// evaluate is the watch step for runs with a blessed baseline: the
// summary fast path for a report identical to its baseline, otherwise
// the watch engine's diff-and-attribute ladder.
func (rp *replayer) evaluate(run *core.Run, req int64, root int32) error {
	ref := "baseline:" + run.Name()
	if _, ok, err := rp.arch.BaselineByName(run.Name()); err != nil || !ok {
		return err
	}
	h := rp.tr.begin("watch.evaluate", req, root)
	defer rp.tr.end(h)
	id, err := rp.arch.ResolveRef(ref)
	if err != nil {
		return err
	}
	base, err := rp.arch.Get(id)
	if err != nil {
		return err
	}
	d, ok := rp.digests[id]
	if !ok {
		d = summary.OfSet(base.Set, summary.DefaultTopK)
		rp.digests[id] = d
	}
	if summary.SetsIdentical(d, summary.OfSet(run.Set, 0)) {
		return nil
	}
	// The service rebuilds its identification corpus whenever the
	// archive index changed, which every ingest that archives does.
	if _, err := rp.arch.List(); err != nil {
		return err
	}
	corpus, _, err := classify.FromArchive(rp.arch)
	if err != nil {
		return err
	}
	if rep := watch.New().Evaluate(base, run, corpus); rep.Verdict == "" {
		return fmt.Errorf("replay: empty watch verdict for %s", run.Name())
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/report"
	"osprof/internal/store"
	"osprof/internal/summary"
)

// The query workload is the read path: closed-loop clients sending
// /v1/identify, /v1/diff and /v1/summary in a 1:2:1 mix against an
// archive of filler runs plus a labeled corpus, with no writes. Refs
// are skewed: most come from a hot set that fits the service's digest
// memo, the rest are drawn from the whole archive and mostly miss it.

const (
	queryRuns    = 10_000
	corpusLabels = 20
	corpusReps   = 2
	hotRuns      = 256 // fits the service's 512-entry digest memo
	hotShare     = 0.8
	coldPool     = 1024 // pre-encoded identify bodies for uniform draws
	checkEvery   = 64   // every 64th response is re-derived in-process,
	maxKept      = 256  // up to this many per client
	queryReplay  = 3000 // requests per client replayed in-process by the traced run
)

// queryRequests is how many measured requests each client sends per
// phase: fixed work sized from --seconds.
func queryRequests(seconds int) int { return 1200 * seconds }

// queryRig is the populated archive, the service over it and the
// inputs clients draw from.
type queryRig struct {
	dir     string // the populated archive
	st      *stack
	ids     []string // filler run IDs, in generation order
	corpus  []*core.Run
	hot     []int    // indices into ids
	cold    []int    // indices into ids, drawn uniformly
	hotEnv  [][]byte // identify bodies of hot runs
	coldEnv [][]byte // identify bodies of cold runs
	calls   [][]call // [client] the measured requests
	reqs    [][]queryReq
}

// populate fills a fresh archive under tmp with the filler runs and the
// corpus, picks the hot set and the cold pool and encodes their
// identify bodies. It runs once per run, before set-up: writing 10,000
// run files is mostly the host kernel creating files, which would
// drown the service's own set-up cost.
func populate(seed int64, tmp string) (*queryRig, error) {
	arch, err := openFresh(tmp)
	if err != nil {
		return nil, err
	}
	rig := &queryRig{dir: arch.Dir()}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(queryRuns)
	rig.hot = perm[:hotRuns]
	for i := 0; i < coldPool; i++ {
		rig.cold = append(rig.cold, rng.Intn(queryRuns))
	}
	want := make(map[int]bool, hotRuns+coldPool)
	for _, i := range append(append([]int(nil), rig.hot...), rig.cold...) {
		want[i] = true
	}
	env := make(map[int][]byte, len(want))
	const batch = 256
	for lo := 0; lo < queryRuns; lo += batch {
		runs := make([]*core.Run, 0, batch)
		for i := lo; i < min(lo+batch, queryRuns); i++ {
			r := fillerRun(seed, i)
			runs = append(runs, r)
			if want[i] {
				var buf bytes.Buffer
				if err := core.WriteRun(&buf, r); err != nil {
					return nil, err
				}
				env[i] = buf.Bytes()
			}
		}
		put, err := arch.PutBatch(runs)
		if err != nil {
			return nil, err
		}
		for _, p := range put {
			rig.ids = append(rig.ids, p.ID)
		}
	}
	for li := 0; li < corpusLabels; li++ {
		for rep := 1; rep <= corpusReps; rep++ {
			rig.corpus = append(rig.corpus, corpusRun(seed, li, rep))
		}
	}
	if _, err := arch.PutBatch(rig.corpus); err != nil {
		return nil, err
	}
	for _, i := range rig.hot {
		rig.hotEnv = append(rig.hotEnv, env[i])
	}
	for _, i := range rig.cold {
		rig.coldEnv = append(rig.coldEnv, env[i])
	}
	return rig, nil
}

// setup opens the populated archive, starts the service over it and
// warms it: one identify builds its corpus memo, one summary per hot
// run fills the digest memo.
func (rig *queryRig) setup() (*stack, error) {
	arch, err := store.Open(rig.dir)
	if err != nil {
		return nil, err
	}
	st, err := startStack(arch)
	if err != nil {
		return nil, err
	}
	if _, err := st.mustOK("POST", "/v1/identify", rig.hotEnv[0]); err != nil {
		st.close()
		return nil, err
	}
	for _, i := range rig.hot {
		if _, err := st.mustOK("GET", "/v1/summary?ref="+rig.ids[i], nil); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// queryKind orders the 1:2:1 mix.
type queryKind int

const (
	identify queryKind = iota
	diffPair
	summaryRef
)

var queryKinds = [4]queryKind{identify, diffPair, summaryRef, diffPair}

func (k queryKind) String() string { return [...]string{"identify", "diff", "summary"}[k] }

// queryReq is one request a client sends.
type queryReq struct {
	kind queryKind
	a, b int    // run indices (b: diff only; for identify, a is the index of the body's run)
	body []byte // identify body
}

// genRequests makes each client's measured requests: kind from the
// fixed mix, refs skewed towards the hot set, half the diffs against
// the run itself.
func (rig *queryRig) genRequests(seed int64, perClient int) {
	n := clients()
	rig.reqs, rig.calls = make([][]queryReq, n), make([][]call, n)
	for c := 0; c < n; c++ {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		diffs := 0
		for k := 0; k < perClient; k++ {
			r := queryReq{kind: queryKinds[k%len(queryKinds)]}
			hot := rng.Float64() < hotShare
			switch {
			case r.kind == identify && hot:
				j := rng.Intn(hotRuns)
				r.a, r.body = rig.hot[j], rig.hotEnv[j]
			case r.kind == identify:
				j := rng.Intn(coldPool)
				r.a, r.body = rig.cold[j], rig.coldEnv[j]
			case hot:
				r.a = rig.hot[rng.Intn(hotRuns)]
			default:
				r.a = rng.Intn(queryRuns)
			}
			cl := call{method: "GET", ops: 1, kind: int(r.kind), ref: k, keep: kept(k)}
			switch r.kind {
			case identify:
				cl.method, cl.path, cl.body = "POST", "/v1/identify", r.body
			case diffPair:
				r.b = r.a
				if diffs%2 == 1 {
					r.b = (r.a + 1) % queryRuns
				}
				diffs++
				cl.path = "/v1/diff?a=" + url.QueryEscape(rig.ids[r.a]) + "&b=" + url.QueryEscape(rig.ids[r.b])
			case summaryRef:
				cl.path = "/v1/summary?ref=" + url.QueryEscape(rig.ids[r.a])
			}
			rig.reqs[c] = append(rig.reqs[c], r)
			rig.calls[c] = append(rig.calls[c], cl)
		}
	}
}

// kept reports whether request k's response is re-derived in-process.
func kept(k int) bool { return k%checkEvery == 0 && k/checkEvery < maxKept }

// checker counts a round's requests, fails non-200 answers and
// re-derives every kept response in-process: prefiltered identify and
// summary-first diff must agree with the exhaustive engines.
type checker struct {
	rig        *queryRig
	res        *results
	corpus     *classify.Corpus
	fast, full *classify.Classifier
}

func (rig *queryRig) checker(res *results, corpus *classify.Corpus) *checker {
	fast := classify.New()
	fast.Prefilter = classify.DefaultPrefilter
	return &checker{rig: rig, res: res, corpus: corpus, fast: fast, full: classify.New()}
}

func (ck *checker) check(calls [][]call, replies [][]reply) error {
	for c := range calls {
		bad := 0
		for k, cl := range calls[c] {
			rep := replies[c][k]
			ck.res.attempted++
			if rep.code != http.StatusOK {
				bad++
				continue
			}
			if rep.body == nil {
				continue
			}
			r := ck.rig.reqs[c][cl.ref]
			if msg, err := ck.rig.verify(r, rep.body, ck.corpus, ck.fast, ck.full); err != nil {
				return err
			} else if msg != "" {
				ck.res.fail(1, "%s %s: %s", r.kind, ck.rig.ids[r.a], msg)
			}
		}
		if bad > 0 {
			ck.res.fail(bad, "client %d: %d requests answered with a status other than 200", c, bad)
		}
	}
	return nil
}

// round is the calls of round r of a phase.
func (rig *queryRig) round(r int) ([][]call, error) {
	out := make([][]call, len(rig.calls))
	for c, calls := range rig.calls {
		per := len(calls) / phaseRounds
		out[c] = calls[r*per : (r+1)*per]
	}
	return out, nil
}

// checkCorpus checks that every corpus member identifies as its own
// label, with the prefiltered and the exhaustive classifier.
func (rig *queryRig) checkCorpus(res *results, corpus *classify.Corpus) {
	fast := classify.New()
	fast.Prefilter = classify.DefaultPrefilter
	for _, run := range rig.corpus {
		res.attempted++
		want := run.Meta[classify.LabelMetaKey]
		for _, c := range []*classify.Classifier{fast, classify.New()} {
			if rep := c.Identify(corpus, run); !rep.Matched || rep.Label != want {
				res.fail(1, "corpus member %s identified as %q (matched=%v): %s", want, rep.Label, rep.Matched, rep.Reason)
				break
			}
		}
	}
}

// verify re-derives one kept response; msg is empty when it agrees.
func (rig *queryRig) verify(r queryReq, resp []byte, corpus *classify.Corpus, fast, full *classify.Classifier) (string, error) {
	switch r.kind {
	case identify:
		run, err := core.ReadRun(bytes.NewReader(r.body))
		if err != nil {
			return "", err
		}
		var got classify.Report
		if err := json.Unmarshal(resp, &got); err != nil {
			return "undecodable response", nil
		}
		fr, xr := fast.Identify(corpus, run), full.Identify(corpus, run)
		if got.Matched != fr.Matched || got.Label != fr.Label || got.Distance != fr.Distance {
			return fmt.Sprintf("served %v/%q, in-process %v/%q", got.Matched, got.Label, fr.Matched, fr.Label), nil
		}
		if fr.Matched != xr.Matched || fr.Label != xr.Label || fr.Distance != xr.Distance {
			return fmt.Sprintf("prefiltered %v/%q, exhaustive %v/%q", fr.Matched, fr.Label, xr.Matched, xr.Label), nil
		}
	case diffPair:
		a, err := rig.st.arch.Get(rig.ids[r.a])
		if err != nil {
			return "", err
		}
		b, err := rig.st.arch.Get(rig.ids[r.b])
		if err != nil {
			return "", err
		}
		var got diff.Report
		if err := json.Unmarshal(resp, &got); err != nil {
			return "undecodable response", nil
		}
		fd, xd := diff.NewSummaryFirst().Runs(a, b), diff.New().Runs(a, b)
		if got.Changed != fd.Changed || len(got.Ops) != len(fd.Ops) {
			return fmt.Sprintf("served changed=%d, in-process %d", got.Changed, fd.Changed), nil
		}
		if !sameVerdicts(fd, xd) {
			return fmt.Sprintf("summary-first changed=%d, exhaustive %d", fd.Changed, xd.Changed), nil
		}
	case summaryRef:
		var got report.SummaryDoc
		if err := json.Unmarshal(resp, &got); err != nil || got.ID != rig.ids[r.a] {
			return "summary names another run", nil
		}
	}
	return "", nil
}

// sameVerdicts reports whether two diff reports agree on every op.
func sameVerdicts(a, b *diff.Report) bool {
	if a.Changed != b.Changed || len(a.Ops) != len(b.Ops) {
		return false
	}
	v := make(map[string]diff.Verdict, len(b.Ops))
	for _, d := range b.Ops {
		v[d.Op] = d.Verdict
	}
	for _, d := range a.Ops {
		if w, ok := v[d.Op]; !ok || w != d.Verdict {
			return false
		}
	}
	return true
}

// runQuery populates the archive and sets the service up over it, then
// sends each round of measured requests twice: over loopback HTTP for
// what a user sees, and straight into the handler for the server's own
// CPU time and allocations, which BENCHMARK.json gates.
func runQuery(cfg config, res *results) error {
	t0, c0 := time.Now(), cpuTime()
	rig, err := populate(cfg.seed, cfg.tmp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(rig.dir)
	res.set("populate_s", "s", (cpuTime() - c0).Seconds(), nil)
	res.set("populate_wall_s", "s", time.Since(t0).Seconds(), nil)
	rig.genRequests(cfg.seed, queryRequests(cfg.seconds))
	st, err := timeSetup(res, rig.setup, (*stack).close)
	if err != nil {
		return err
	}
	defer st.close()
	rig.st = st
	corpus, _, err := classify.FromArchive(st.arch)
	if err != nil {
		return err
	}
	rig.checkCorpus(res, corpus)
	if cfg.trace {
		return queryTraced(cfg, res, rig, corpus)
	}
	httpPh, serverPh, err := runRounds(st, st, rig.round, rig.checker(res, corpus).check)
	if err != nil {
		return err
	}
	setHTTP(res, httpPh)
	res.alias("query_req_per_s", "ops_per_s")
	setPercentiles(res, httpPh, int(identify), "identify_p50_ms", "identify_p99_ms")
	setPercentiles(res, httpPh, int(diffPair), "diff_p50_ms", "diff_p99_ms")
	setServer(res, serverPh)
	res.set("failed_ratio", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), nil)
	return nil
}

// queryTraced sends the measured requests over HTTP, then replays each
// client's first identify and diff requests in-process in
// untraced/traced pairs, the traced side with a span around every
// public function the handlers call, in the handlers' order. Summary
// requests are not replayed: their cost is the service's private
// digest memo, measured by its hit ratio instead.
func queryTraced(cfg config, res *results, rig *queryRig, corpus *classify.Corpus) error {
	h0, m0, _ := rig.st.sv.DigestStats()
	ph, _, err := runRounds(rig.st, nil, rig.round, rig.checker(res, corpus).check)
	if err != nil {
		return err
	}
	h1, m1, _ := rig.st.sv.DigestStats()
	hits, misses := h1-h0, m1-m0
	res.set("serve.digest_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)), nil)

	var replay []queryReq
	for k := 0; k < queryReplay; k++ {
		for _, reqs := range rig.reqs {
			if k < len(reqs) && reqs[k].kind != summaryRef {
				replay = append(replay, reqs[k])
			}
		}
	}
	var alloc allocMeter
	trs, off, on, err := pairedReplays(cfg.seed, func(tr *tracer) (time.Duration, error) {
		if tr == nil {
			alloc.start()
			defer alloc.stop()
		}
		t0 := time.Now()
		for k, r := range replay {
			if err := rig.replay(tr, corpus, r, int64(k)); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}

	settled, pairs := 0, 0
	for _, r := range replay {
		if r.kind != diffPair {
			continue
		}
		a, err := rig.st.arch.Get(rig.ids[r.a])
		if err != nil {
			return err
		}
		b, err := rig.st.arch.Get(rig.ids[r.b])
		if err != nil {
			return err
		}
		pairs++
		if guardSettles(a.Set, b.Set) {
			settled++
		}
	}

	var httpIdentify latencies
	for _, s := range ph.samples {
		if s.kind == int(identify) {
			httpIdentify = append(httpIdentify, s.lat)
		}
	}
	self := mergedSelf(trs, "")
	res.set("store.get_us", "us", self["store.get"].mean(time.Microsecond), nil)
	res.set("store.list_us", "us", self["store.list"].mean(time.Microsecond), nil)
	res.set("core.decode_us", "us", self["core.decode"].mean(time.Microsecond), nil)
	res.set("classify.identify_us", "us", self["classify.identify"].mean(time.Microsecond), nil)
	res.set("diff.runs_us", "us", self["diff.runs"].mean(time.Microsecond), nil)
	res.set("diff.summary_settled_ratio", "ratio", float64(settled)/float64(max(pairs, 1)), nil)
	res.set("query.alloc_bytes_per_req", "B", float64(alloc.bytes)/float64(max(replayPairs*len(replay), 1)), nil)
	res.set("serve.http_residual_us", "us", 1000*(httpIdentify.pct(0.5)-mergedRoots(trs, "identify").pct(0.5)), nil)
	setOverhead(res, "osbench.span_overhead_pct", pairedOverhead(off, on))
	return trs[0].write(filepath.Join(buildDir, "spans"), fmt.Sprintf("query-seed%d.tsv", cfg.seed))
}

// replay runs one identify or diff request in-process the way its
// handler does.
func (rig *queryRig) replay(tr *tracer, corpus *classify.Corpus, r queryReq, req int64) error {
	root := tr.begin(r.kind.String(), req, -1)
	defer tr.end(root)
	if r.kind == identify {
		h := tr.begin("core.decode", req, root)
		run, err := core.ReadRun(bytes.NewReader(r.body))
		tr.end(h)
		if err != nil {
			return err
		}
		// The handler lists the index to key its corpus memo; the index
		// is unchanged here, so the memoized corpus answers.
		h = tr.begin("store.list", req, root)
		_, err = rig.st.arch.List()
		tr.end(h)
		if err != nil {
			return err
		}
		h = tr.begin("classify.identify", req, root)
		c := classify.New()
		c.Prefilter = classify.DefaultPrefilter
		c.Identify(corpus, run)
		tr.end(h)
		return nil
	}
	var runs [2]*core.Run
	for i, idx := range [2]int{r.a, r.b} {
		h := tr.begin("store.get", req, root)
		id, err := rig.st.arch.ResolveRef(rig.ids[idx])
		if err == nil {
			runs[i], err = rig.st.arch.Get(id)
		}
		tr.end(h)
		if err != nil {
			return err
		}
	}
	h := tr.begin("diff.runs", req, root)
	diff.NewSummaryFirst().Runs(runs[0], runs[1])
	tr.end(h)
	return nil
}

// guardSettles reports whether the summary guard alone settles a pair:
// every operation on either side within summary.WithinGuard at the
// default band, with no one-sided mass.
func guardSettles(a, b *core.Set) bool {
	if a.R != b.R {
		return false
	}
	sa, sb := summary.OfSet(a, 0), summary.OfSet(b, 0)
	for _, x := range sa.Ops {
		y := sb.Lookup(x.Op)
		if y == nil {
			if x.Count > 0 {
				return false
			}
			continue
		}
		if !summary.WithinGuard(x, *y, summary.DefaultGuard) {
			return false
		}
	}
	for _, y := range sb.Ops {
		if sa.Lookup(y.Op) == nil && y.Count > 0 {
			return false
		}
	}
	return true
}

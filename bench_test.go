package osprof_test

// The benchmark harness: one benchmark per paper figure/table
// (regenerating the experiment and reporting its headline numbers as
// custom metrics), plus micro-benchmarks of the aggregate statistics
// library itself — the real-world costs that correspond to the paper's
// §5.2 per-operation overheads.
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"osprof"
	"osprof/internal/analysis"
	"osprof/internal/experiments"
	"osprof/internal/live"
	"osprof/internal/runner"
	"osprof/internal/serve"
	"osprof/internal/sim"
	"osprof/internal/store"
)

// runExperiment executes an experiment once per benchmark iteration and
// fails the benchmark if any paper invariant breaks.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.Registry[id]()
		if fails := experiments.Failures(r); len(fails) > 0 {
			for _, c := range fails {
				b.Errorf("%s: %s — %s", id, c.Name, c.Text())
			}
		}
		r.Report(io.Discard)
	}
}

func BenchmarkFig1CloneContention(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig3PreemptionEffects(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkEq3PreemptionModel(b *testing.B)        { benchEq3(b) }
func BenchmarkFig6LlseekContention(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7ReaddirPeaks(b *testing.B)          { runExperiment(b, "fig7") }
func BenchmarkFig8ValueCorrelation(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9TimelineProfiles(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10CIFSProfiles(b *testing.B)         { runExperiment(b, "fig10") }
func BenchmarkFig11DelayedAck(b *testing.B)           { runExperiment(b, "fig11") }
func BenchmarkEvalMemoryUsage(b *testing.B)           { runExperiment(b, "eval-memory") }
func BenchmarkEvalOverheadDecomposition(b *testing.B) { runExperiment(b, "eval-overhead") }
func BenchmarkEvalAnalysisAccuracy(b *testing.B)      { runExperiment(b, "eval-accuracy") }
func BenchmarkEvalBucketLocking(b *testing.B)         { runExperiment(b, "eval-locking") }

// --- Runner benchmarks -----------------------------------------------
//
// Every experiment is an isolated deterministic simulation, so the
// full suite is embarrassingly parallel; the pair below measures the
// wall-clock speedup of the worker-pool runner over a serial sweep.

// benchRunnerAll executes every registered experiment once per
// iteration through the runner with the given worker count.
func benchRunnerAll(b *testing.B, parallel int) {
	ids := experiments.IDs()
	jobs := make([]runner.Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, runner.Job{ID: id, New: experiments.Registry[id]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runner.Run(jobs, runner.Options{Parallel: parallel})
		if failed := runner.FailedChecks(results); failed > 0 {
			b.Fatalf("%d failed checks", failed)
		}
	}
}

func BenchmarkRunnerAllExperimentsSerial(b *testing.B) { benchRunnerAll(b, 1) }

func BenchmarkRunnerAllExperimentsParallel(b *testing.B) {
	benchRunnerAll(b, runtime.GOMAXPROCS(0))
}

// benchEq3 reports the paper's Equation 3 example values.
func benchEq3(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += experiments.Eq3(1<<10, 1<<11, 1<<26, 0.01)
	}
	b.ReportMetric(sink/float64(b.N), "Pr(fp)")
}

// --- Aggregate statistics library micro-benchmarks -------------------
//
// These measure the REAL cost of the Go implementation on the host CPU
// (not simulated cycles): the paper's equivalents are the ~200-cycle
// full profiling cost and the 40-cycle in-window overhead.

func BenchmarkProfileRecord(b *testing.B) {
	p := osprof.NewProfile("op")
	for i := 0; i < b.N; i++ {
		p.Record(uint64(i)*2654435761 + 1)
	}
	if p.Count != uint64(b.N) {
		b.Fatal("lost updates")
	}
}

func BenchmarkProfileRecordR2(b *testing.B) {
	p := osprof.NewProfileR("op", 2)
	for i := 0; i < b.N; i++ {
		p.Record(uint64(i)*2654435761 + 1)
	}
}

func BenchmarkBucketFor(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += osprof.BucketFor(uint64(i)|1, 1)
	}
	_ = sink
}

func BenchmarkConcurrentRecordLocked(b *testing.B) {
	p := osprof.NewConcurrentProfile("op", osprof.Locked, 0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Record(0, 100)
		}
	})
}

func BenchmarkConcurrentRecordUnsync(b *testing.B) {
	p := osprof.NewConcurrentProfile("op", osprof.Unsync, 0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Record(0, 100)
		}
	})
	loss := float64(p.Lost()) / float64(p.Attempts())
	b.ReportMetric(100*loss, "%lost")
}

func BenchmarkConcurrentRecordSharded(b *testing.B) {
	p := osprof.NewConcurrentProfile("op", osprof.Sharded, 64)
	var nextShard atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		// Each worker gets its own shard — the §3.4 per-thread design.
		shard := int(nextShard.Add(1))
		for pb.Next() {
			p.Record(shard, 100)
		}
	})
	if p.Lost() != 0 {
		b.Fatal("sharded mode lost updates")
	}
}

// --- Live Recorder hot path ------------------------------------------
//
// The live API's promise is that an always-on Recorder costs a map
// read plus an atomic histogram update per operation — and zero
// allocations, the property that makes it deployable in production
// (the paper's ~200-cycle budget, §5.2).

// benchRecorderHot measures one Record through the given recorder.
func benchRecorderHot(b *testing.B, rec *osprof.Recorder) {
	rec.Record("op", 0) // materialize the collector outside the loop
	start := rec.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record("op", start)
	}
}

func BenchmarkRecorderHotUnsync(b *testing.B) {
	benchRecorderHot(b, osprof.NewRecorder())
}

func BenchmarkRecorderHotLocked(b *testing.B) {
	benchRecorderHot(b, osprof.NewRecorder(osprof.WithLockingMode(osprof.Locked)))
}

func BenchmarkRecorderHotSharded(b *testing.B) {
	benchRecorderHot(b, osprof.NewRecorder(
		osprof.WithLockingMode(osprof.Sharded), osprof.WithShards(8)))
}

// BenchmarkRecorderHot is the headline number: the default (Unsync)
// configuration, plus an AllocsPerRun assertion so an allocation
// sneaking into the hot path fails the benchmark run, not just a
// separate test.
func BenchmarkRecorderHot(b *testing.B) {
	rec := osprof.NewRecorder()
	if allocs := testing.AllocsPerRun(100, func() { rec.Record("op", 0) }); allocs != 0 {
		b.Fatalf("Record allocates %v objects/op, want 0", allocs)
	}
	benchRecorderHot(b, rec)
}

func TestRecorderRecordAllocationFree(t *testing.T) {
	// The ISSUE 4 acceptance bar: 0 allocs/op for Record in Unsync and
	// Sharded modes (Locked is asserted too — same code shape).
	for name, rec := range map[string]*osprof.Recorder{
		"unsync":  osprof.NewRecorder(),
		"sharded": osprof.NewRecorder(osprof.WithLockingMode(osprof.Sharded), osprof.WithShards(8)),
		"locked":  osprof.NewRecorder(osprof.WithLockingMode(osprof.Locked)),
	} {
		rec.Record("op", 0)
		if allocs := testing.AllocsPerRun(100, func() { rec.Record("op", 0) }); allocs != 0 {
			t.Errorf("%s: Record allocates %v objects/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { rec.Start("op").End() }); allocs != 0 {
			t.Errorf("%s: Start/End allocates %v objects/op, want 0", name, allocs)
		}
	}
}

// --- Analysis micro-benchmarks ---------------------------------------

func benchProfilePair() (*osprof.Profile, *osprof.Profile) {
	a, bb := osprof.NewProfile("a"), osprof.NewProfile("b")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		a.Record(uint64(rng.Int63n(1 << 24)))
		bb.Record(uint64(rng.Int63n(1 << 26)))
	}
	return a, bb
}

func BenchmarkEarthMoversDistance(b *testing.B) {
	x, y := benchProfilePair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.EarthMovers(x, y)
	}
}

func BenchmarkChiSquare(b *testing.B) {
	x, y := benchProfilePair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ChiSquareScore(x, y)
	}
}

func BenchmarkFindPeaks(b *testing.B) {
	x, _ := benchProfilePair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.FindPeaks(x)
	}
}

func benchSetPair() (*osprof.Set, *osprof.Set) {
	s1, s2 := osprof.NewSet("a"), osprof.NewSet("b")
	rng := rand.New(rand.NewSource(2))
	for op := 0; op < 30; op++ {
		name := string(rune('a' + op))
		for i := 0; i < 500; i++ {
			s1.Record(name, uint64(rng.Int63n(1<<20)))
			s2.Record(name, uint64(rng.Int63n(1<<22)))
		}
	}
	return s1, s2
}

func BenchmarkSelectorCompare(b *testing.B) {
	s1, s2 := benchSetPair()
	sel := osprof.DefaultSelector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Compare(s1, s2)
	}
}

// --- Zero-allocation fast-path assertions -----------------------------
//
// The simulator's steady-state scheduling path (event pool, pre-bound
// callbacks, ring run queue, inline slice completion) and the analysis
// scorers must not allocate per operation; these tests fail loudly if a
// regression reintroduces per-call garbage.

// simExecAllocsPerOp measures the marginal allocations of one Exec by
// differencing a long run against a short one, which cancels the fixed
// setup cost (kernel, goroutine, channels, event-pool warmup).
func simExecAllocsPerOp(tickPeriod, execLen uint64, iters int) float64 {
	run := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			// TickCost must stay below TickPeriod or slices never finish.
			k := sim.New(sim.Config{TickPeriod: tickPeriod, TickCost: 100})
			k.Spawn("w", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Exec(execLen)
				}
			})
			k.Run()
		})
	}
	return (run(100+iters) - run(100)) / float64(iters)
}

func TestSimExecInlineFastPathAllocationFree(t *testing.T) {
	// Short slices between distant ticks: almost every Exec completes
	// inline, with no event push and no channel round-trip.
	if per := simExecAllocsPerOp(1<<20, 1_000, 20_000); per > 0.01 {
		t.Errorf("inline Exec fast path allocates %.4f objects/op, want 0", per)
	}
}

func TestSimStartSliceSteadyStateAllocationFree(t *testing.T) {
	// Slices longer than the tick period: every Exec crosses a pending
	// tick, so each takes the slow path through startSlice and the
	// event heap; the event pool and pre-bound callbacks must make that
	// allocation-free too.
	if per := simExecAllocsPerOp(2_048, 4_096, 5_000); per > 0.01 {
		t.Errorf("startSlice slow path allocates %.4f objects/op, want 0", per)
	}
}

func TestScoreMethodsAllocationFree(t *testing.T) {
	x, y := benchProfilePair()
	for _, m := range analysis.Methods {
		if allocs := testing.AllocsPerRun(10, func() { analysis.Score(m, x, y) }); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", m, allocs)
		}
	}
}

func TestSelectorCompareSteadyStateAllocationFree(t *testing.T) {
	s1, s2 := benchSetPair()
	sel := osprof.DefaultSelector()
	sel.Compare(s1, s2) // warm up the scratch buffers
	if allocs := testing.AllocsPerRun(10, func() { sel.Compare(s1, s2) }); allocs != 0 {
		t.Errorf("Selector.Compare: %v allocs/op in steady state, want 0", allocs)
	}
}

// --- Fleet-ingest hot paths -------------------------------------------
//
// The batched-ingest pipeline has three per-report costs: the recorder
// computes a delta (DeltaOf), the server folds it into its accumulator
// (Run.Apply), and flushes merge envelopes (Profile.Merge). Merge and
// steady-state Apply must be allocation-free — the server does one per
// report per recorder at fleet rate — and DeltaOf must stay bounded by
// the changed-op count, not history.

// deltaFixture builds a fixed one-op delta and a warm receiver.
func deltaFixture(t testing.TB) (*osprof.Run, *osprof.Delta) {
	t.Helper()
	prev := &osprof.Run{Fingerprint: "fp", Set: osprof.NewSet("s")}
	cur := &osprof.Run{Fingerprint: "fp", Set: osprof.NewSet("s")}
	prev.Set.Record("read", 1_000)
	cur.Set.Record("read", 1_000)
	cur.Set.Record("read", 2_000)
	d, err := osprof.DeltaOf(prev, cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	recv := &osprof.Run{Fingerprint: "fp", Set: osprof.NewSet("s")}
	recv.Set.Record("read", 1_000)
	if err := recv.Apply(d); err != nil {
		t.Fatal(err)
	}
	return recv, d
}

func TestMergeAndApplyAllocationFree(t *testing.T) {
	a, b := osprof.NewProfile("op"), osprof.NewProfile("op")
	for i := 0; i < 100; i++ {
		a.Record(uint64(i*1_000 + 1))
		b.Record(uint64(i*2_000 + 1))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Profile.Merge allocates %v objects/op, want 0", allocs)
	}

	recv, d := deltaFixture(t)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := recv.Apply(d); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Run.Apply allocates %v objects/op in steady state, want 0", allocs)
	}
}

func TestDeltaOfAllocationsBounded(t *testing.T) {
	// DeltaOf allocates the delta envelope and one sparse profile per
	// CHANGED op — never per historical op. A generous fixed bound
	// catches an O(history) regression without tracking exact counts.
	prev := &osprof.Run{Fingerprint: "fp", Set: osprof.NewSet("s")}
	cur := &osprof.Run{Fingerprint: "fp", Set: osprof.NewSet("s")}
	for op := 0; op < 50; op++ {
		name := string(rune('a'+op%26)) + string(rune('0'+op/26))
		prev.Set.Record(name, 1_000)
		cur.Set.Record(name, 1_000)
	}
	cur.Set.Record("a0", 2_000) // exactly one op changed
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := osprof.DeltaOf(prev, cur, 2); err != nil {
			t.Fatal(err)
		}
	}); allocs > 16 {
		t.Errorf("DeltaOf allocates %v objects for a 1-op change over 50 ops, want <= 16", allocs)
	}
}

func BenchmarkRunApplyDelta(b *testing.B) {
	recv, d := deltaFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := recv.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestDeltaBatches measures the full server-side cost per
// shipped envelope: one recorder exports a delta chain in batches of
// 64 through the real /v1/ingest handler (parse, seq check, coalesce,
// threshold flushes into the archive). ns/op is per envelope.
func BenchmarkIngestDeltaBatches(b *testing.B) {
	arch, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sv := serve.New(arch, serve.Options{})
	defer sv.Close()
	h := sv.Handler()
	rec := live.New()
	sess := rec.Session(nil, "bench/ingest")
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Observe("read", uint64(i)*2654435761%(1<<24)+1)
		if err := sess.ExportDelta(&buf); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 || i == b.N-1 {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(buf.Bytes()))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				b.Fatalf("ingest: %d\n%s", rw.Code, rw.Body)
			}
			buf.Reset()
		}
	}
}

// --- Simulator micro-benchmarks ---------------------------------------

// BenchmarkSimExecInline measures one inline (fast-path) Exec.
func BenchmarkSimExecInline(b *testing.B) {
	k := sim.New(sim.Config{})
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Exec(1_000)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimExecSlowPath measures one slow-path Exec (pending tick
// forces the event heap and the kernel-loop handoff).
func BenchmarkSimExecSlowPath(b *testing.B) {
	k := sim.New(sim.Config{TickPeriod: 2_048, TickCost: 100})
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Exec(4_096)
		}
	})
	b.ResetTimer()
	k.Run()
}

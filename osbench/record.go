package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"osprof/internal/core"
	"osprof/internal/experiments"
	"osprof/internal/scenario"
	"osprof/internal/store"
)

// The record workload is what `osprof record all` does at its default
// runner parallelism of 1: build each scenario's simulated world, run
// it, fold and check its profiles, and archive the run into a fresh
// archive. A pass records the named spec list once untraced and once
// with Spec.Trace on (the `osprof record -trace all` path).

// recordSpecNames pins the workload: the recordable scenarios as of
// this benchmark's definition, by name, in recording order. A later
// recordable added to experiments.RecordableSpecs does not join the
// workload; one that disappears fails it.
var recordSpecNames = []string{
	"ext2/grep", "ext2/walk", "ext2/randomread", "ext2/readzero", "ext2/postmark",
	"reiser/grep", "reiser/walk", "reiser/randomread", "reiser/readzero",
	"cifs/grep", "cifs/walk", "cifs/randomread", "cifs/readzero",
	"fig3/preempt", "fig3/nopreempt",
	"corpus/ext2-preempt-c256", "corpus/ext2-preempt-c8192",
	"corpus/ext2-nopreempt-c256", "corpus/ext2-nopreempt-c8192",
	"corpus/reiser-preempt-c256", "corpus/reiser-preempt-c8192",
	"corpus/reiser-nopreempt-c256", "corpus/reiser-nopreempt-c8192",
	"corpus/cifs-c256", "corpus/cifs-c8192",
	"corpus/ext2-preempt-c256-disk-flaky", "corpus/ext2-nopreempt-c256-disk-flaky",
	"corpus/reiser-preempt-c256-disk-flaky",
	"corpus/ext2-preempt-c8192-cache-thrash", "corpus/ext2-nopreempt-c8192-cache-thrash",
	"corpus/reiser-preempt-c8192-cache-thrash",
	"corpus/ext2-preempt-c256-cpu-hog", "corpus/reiser-preempt-c256-cpu-hog",
	"corpus/cifs-c256-disk-flaky",
	"load/readzero-1x2", "load/readzero-4x2", "load/readzero-8x4",
}

// recordSpecs selects the pinned spec list from the recordables.
func recordSpecs(seed int64) ([]scenario.Spec, error) {
	byName := make(map[string]scenario.Spec)
	for _, s := range experiments.RecordableSpecs(seed) {
		byName[s.Name] = s
	}
	specs := make([]scenario.Spec, 0, len(recordSpecNames))
	for _, n := range recordSpecNames {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("pinned scenario %q is no longer recordable", n)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// smp reports whether a spec simulates more than one CPU.
func smp(s scenario.Spec) bool { return s.Kernel.NumCPUs > 1 }

// counters are the exact simulated-work counts of one recorded world.
// A change that only speeds the simulator up leaves every one of them,
// and every run ID, unchanged.
type counters struct {
	ContextSwitches, Preemptions, TimerTicks, Cycles uint64
	MemHits, MemMisses, MemEvictions                 uint64
	DiskReads, DiskWrites, DiskQueueWait             uint64
	Ops                                              uint64 // profiled operations (fsprof)
}

func (c *counters) add(o counters) {
	c.ContextSwitches += o.ContextSwitches
	c.Preemptions += o.Preemptions
	c.TimerTicks += o.TimerTicks
	c.Cycles += o.Cycles
	c.MemHits += o.MemHits
	c.MemMisses += o.MemMisses
	c.MemEvictions += o.MemEvictions
	c.DiskReads += o.DiskReads
	c.DiskWrites += o.DiskWrites
	c.DiskQueueWait += o.DiskQueueWait
	c.Ops += o.Ops
}

func countersOf(st *scenario.Stack) counters {
	ks := st.K.Stats()
	c := counters{
		ContextSwitches: ks.ContextSwitches, Preemptions: ks.Preemptions,
		TimerTicks: ks.TimerTicks, Cycles: st.K.Now(), Ops: st.Set.TotalOps(),
	}
	if st.Cache != nil {
		ms := st.Cache.Stats()
		c.MemHits, c.MemMisses, c.MemEvictions = ms.Hits, ms.Misses, ms.Evictions
	}
	if st.Disk != nil {
		ds := st.Disk.Stats()
		c.DiskReads, c.DiskWrites, c.DiskQueueWait = ds.Reads, ds.Writes, ds.TotalQueueWait
	}
	return c
}

// recorded is one spec's recording.
type recorded struct {
	name string
	id   string
	wall time.Duration // build through archive
	sim  time.Duration // host time inside Stack.Run
	c    counters
	run  *core.Run

	// problem is the first failed experiment check, empty when all pass.
	problem string
}

// key is what must repeat exactly for the spec across recordings.
func (r recorded) key() string { return fmt.Sprintf("%s %s %+v", r.name, r.id, r.c) }

// recordOne records spec into arch the way `osprof record` does
// (runner.Run over experiments.RecordScenario, then Archive.Put),
// wrapping a span around each layer call when tr is set.
func recordOne(spec scenario.Spec, arch *store.Archive, tr *tracer, root string, req int64) (recorded, error) {
	t0 := time.Now()
	rs := tr.begin(root, req, -1)
	h := tr.begin("scenario.build", req, rs)
	st, err := scenario.Build(spec)
	tr.end(h)
	if err != nil {
		return recorded{}, err
	}
	h = tr.begin("sim.run", req, rs)
	ts := time.Now()
	st.Run()
	simTime := time.Since(ts)
	tr.end(h)

	h = tr.begin("experiments.checks", req, rs)
	sr := &experiments.ScenarioResult{Spec: spec, Stack: st, Elapsed: st.K.Now()}
	failed := experiments.Failures(sr)
	tr.end(h)

	h = tr.begin("core.fold", req, rs)
	run := &core.Run{Fingerprint: spec.Fingerprint(), Meta: sr.RunMeta(), Set: sr.ProfileSet()}
	tr.end(h)
	h = tr.begin("store.put", req, rs)
	id, _, err := arch.Put(run)
	tr.end(h)
	tr.end(rs)
	wall := time.Since(t0)
	if err != nil {
		return recorded{}, err
	}
	r := recorded{name: spec.Name, id: id, wall: wall, sim: simTime, c: countersOf(st), run: run}
	if len(failed) > 0 {
		r.problem = fmt.Sprintf("check %q failed: %s", failed[0].Name, failed[0].Detail)
	}
	return r, nil
}

// pass records every spec into a fresh archive.
func pass(specs []scenario.Spec, dir string, tr *tracer, root string, req *int64) ([]recorded, time.Duration, error) {
	arch, err := openFresh(dir)
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(arch.Dir())
	out := make([]recorded, 0, len(specs))
	t0 := time.Now()
	for _, s := range specs {
		*req++
		r, err := recordOne(s, arch, tr, root, *req)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, r)
	}
	return out, time.Since(t0), nil
}

// openFresh opens an empty archive in a new directory under dir.
func openFresh(dir string) (*store.Archive, error) {
	d, err := os.MkdirTemp(dir, "archive-*")
	if err != nil {
		return nil, err
	}
	return store.Open(d)
}

// withTrace returns specs with Spec.Trace set.
func withTrace(specs []scenario.Spec) []scenario.Spec {
	out := append([]scenario.Spec(nil), specs...)
	for i := range out {
		out[i].Trace = true
	}
	return out
}

// warmSpecs is how many specs from the head of the list (the
// backend x workload matrix, about a quarter second in all) set-up
// records to warm every file system and the archive before timing.
// It records them at warmSeed: world sizes vary with the seed, and
// warmed at the run's seed, what set-up allocated moved by 30% across
// seeds 1-10. A fixed seed keeps set-up the same work at every seed.
const (
	warmSpecs = 13
	warmSeed  = 1
)

// recordSetup selects the pinned specs, builds every world once, which
// validates the list, and records the matrix specs into a scratch
// archive, which warms the code the timed passes run.
func recordSetup(seed int64, tmp string) func() ([]scenario.Spec, error) {
	return func() ([]scenario.Spec, error) {
		specs, err := recordSpecs(seed)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			if _, err := scenario.Build(s); err != nil {
				return nil, fmt.Errorf("build %s: %w", s.Name, err)
			}
		}
		warm, err := recordSpecs(warmSeed)
		if err != nil {
			return nil, err
		}
		var req int64
		if _, _, err := pass(warm[:warmSpecs], tmp, nil, "warm", &req); err != nil {
			return nil, err
		}
		return specs, nil
	}
}

// The record workload measures a fixed amount of work per run, sized
// from --seconds on a 2-vCPU host: an untraced pass takes about 3 s, a
// Spec.Trace pass about 3.4 s, and a traced round (three or four
// variants per scenario) about 10 s. Fixed work rather than a deadline
// keeps the heap figure comparable: every world a pass records leaves
// its daemon goroutines parked, so the heap grows with each pass.
func recordPairs(seconds int) int64  { return max(1, int64(seconds)/6) }
func recordRounds(seconds int) int64 { return max(1, int64(seconds)/10) }

// verifier checks that every recording of a spec variant repeats the
// first exactly, and that untraced recordings match the pins.
type verifier struct {
	res   *results
	seed  int64
	first map[string][]string // variant -> per-spec keys of its first pass
}

func (v *verifier) check(variant string, recs []recorded) {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.key()
	}
	v.res.attempted += len(recs)
	for _, r := range recs {
		if r.problem != "" {
			v.res.fail(1, "%s %s: %s", variant, r.name, r.problem)
		}
	}
	if first, ok := v.first[variant]; ok {
		for i := range keys {
			if keys[i] != first[i] {
				v.res.fail(1, "%s %s: recording differs from the first: %s vs %s", variant, recs[i].name, keys[i], first[i])
			}
		}
		return
	}
	v.first[variant] = keys
	if variant != "untraced" {
		return
	}
	want, ok := pinned()[v.seed]
	if !ok {
		fmt.Fprintf(os.Stderr, "osbench: seed %d has no pinned record counters; checking repeatability only\n", v.seed)
		return
	}
	if got := pinLine(v.seed, recs); got != want {
		v.res.fail(len(recs), "seed %d: recorded run IDs or counters differ from the pins:\n got %s\nwant %s", v.seed, got, want)
	}
}

func runRecord(cfg config, res *results) error {
	specs, err := timeSetup(res, recordSetup(cfg.seed, cfg.tmp), func([]scenario.Spec) {})
	if err != nil {
		return err
	}
	v := &verifier{res: res, seed: cfg.seed, first: map[string][]string{}}
	if cfg.trace {
		return recordTraced(cfg, res, v, specs)
	}
	traced := withTrace(specs)

	var passSecs, smpSecs, tracedSecs, rates, cpuMs, allocKB, slowest []float64
	var req int64
	m := startMeter()
	for k := int64(0); k < recordPairs(cfg.seconds); k++ {
		// Alternate which pass of the pair goes first.
		for side := int64(0); side < 2; side++ {
			if (k+side+cfg.seed&1)%2 == 1 {
				recs, wall, err := pass(traced, cfg.tmp, nil, "record", &req)
				if err != nil {
					m.Stop()
					return err
				}
				v.check("traced", recs)
				tracedSecs = append(tracedSecs, wall.Seconds())
				continue
			}
			cpu0, alloc0 := cpuTime(), allocated()
			recs, wall, err := pass(specs, cfg.tmp, nil, "record", &req)
			if err != nil {
				m.Stop()
				return err
			}
			cpuMs = append(cpuMs, ms(cpuTime()-cpu0)/float64(len(recs)))
			allocKB = append(allocKB, float64(allocated()-alloc0)/1024/float64(len(recs)))
			v.check("untraced", recs)
			var smpWall, slow time.Duration
			for i, r := range recs {
				slow = max(slow, r.wall)
				if smp(specs[i]) {
					smpWall += r.wall
				}
			}
			passSecs = append(passSecs, wall.Seconds())
			smpSecs = append(smpSecs, smpWall.Seconds())
			rates = append(rates, float64(len(recs))/wall.Seconds())
			slowest = append(slowest, ms(slow))
		}
	}
	// The heap figure is the peak over the whole phase.
	res.set("heap_peak_mb", "MB", m.Stop().heapMB, nil)
	setMedian(res, "ops_per_s", "1/s", rates)
	setMedian(res, "cpu_ms_per_op", "ms", cpuMs)
	setMedian(res, "alloc_kb_per_op", "kB", allocKB)
	setMedian(res, "record_s", "s", passSecs)
	res.set("latency_ms", "ms", 1000*res.values["record_s"], nil)
	setMedian(res, "tail_ms", "ms", slowest)
	setMedian(res, "record_smp_s", "s", smpSecs)
	setMedian(res, "record_traced_s", "s", tracedSecs)
	res.set("failed_ratio", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), nil)
	return nil
}

// recordTraced is the traced run. Each round records every spec in up
// to four variants, back to back, rotating their order per spec so
// every paired comparison alternates its first side:
//
//	plain   untraced spec, no spans          (span-overhead baseline)
//	spanned untraced spec, spans             (the per-layer numbers)
//	traced  Spec.Trace on, spans             (trace.overhead_pct vs spanned)
//	load    SMP worlds only, LoadProfile     (load.overhead_pct vs spanned)
//	        flipped, spans
func recordTraced(cfg config, res *results, v *verifier, specs []scenario.Spec) error {
	tr := newTracer()
	var (
		req                   int64
		alloc                 allocMeter
		plainW, spannedW      []time.Duration
		traceOff, traceOn     []time.Duration
		loadOff, loadOn       []time.Duration
		upSim, smpSim         time.Duration
		upOps, smpOps, allOps uint64
		first                 counters
		rounds                int
		encode                time.Duration
	)
	for k := 0; k < int(recordRounds(cfg.seconds)); k++ {
		archs := map[string]*store.Archive{}
		for _, variant := range []string{"plain", "spanned", "traced", "load"} {
			a, err := openFresh(cfg.tmp)
			if err != nil {
				return err
			}
			archs[variant] = a
		}
		round := map[string][]recorded{}
		for i, s := range specs {
			variants := []string{"plain", "spanned", "traced"}
			if smp(s) {
				variants = append(variants, "load")
			}
			got := map[string]recorded{}
			for j := range variants {
				variant := variants[(i+k+j+int(cfg.seed&1))%len(variants)]
				spec, t, root := s, tr, "record."+variant
				switch variant {
				case "plain":
					t = nil
				case "traced":
					spec.Trace = true
				case "load":
					spec.LoadProfile = !spec.LoadProfile
				}
				req++
				if variant == "spanned" {
					alloc.start()
				}
				r, err := recordOne(spec, archs[variant], t, root, req)
				if variant == "spanned" {
					alloc.stop()
				}
				if err != nil {
					return err
				}
				got[variant] = r
				round[variant] = append(round[variant], r)
			}
			sp := got["spanned"]
			plainW, spannedW = append(plainW, got["plain"].wall), append(spannedW, sp.wall)
			traceOff, traceOn = append(traceOff, sp.wall), append(traceOn, got["traced"].wall)
			if ld, ok := got["load"]; ok {
				if s.LoadProfile {
					loadOff, loadOn = append(loadOff, ld.wall), append(loadOn, sp.wall)
				} else {
					loadOff, loadOn = append(loadOff, sp.wall), append(loadOn, ld.wall)
				}
			}
			allOps += sp.c.Ops
			if smp(s) {
				smpSim += sp.sim
				smpOps += sp.c.Ops
			} else {
				upSim += sp.sim
				upOps += sp.c.Ops
			}
			if k == 0 {
				first.add(sp.c)
			}
		}
		// The standalone encode of each folded run: the serialisation
		// Archive.Put performs, timed outside the recording flow.
		var buf bytes.Buffer
		for _, r := range round["spanned"] {
			buf.Reset()
			h := tr.begin("core.encode", req, -1)
			t0 := time.Now()
			if err := core.WriteRun(&buf, r.run); err != nil {
				return err
			}
			encode += time.Since(t0)
			tr.end(h)
		}
		for _, variant := range []string{"untraced", "traced", "load"} {
			src := variant
			if variant == "untraced" {
				src = "spanned"
			}
			v.check(variant, round[src])
		}
		v.check("plain", round["plain"])
		for _, a := range archs {
			os.RemoveAll(a.Dir())
		}
		rounds++
	}

	self := tr.selfTimes("record.spanned")
	perPass := func(name string) float64 {
		return float64(self[name].self) / float64(rounds) / float64(time.Millisecond)
	}
	res.set("scenario.build_ms", "ms", perPass("scenario.build"), nil)
	res.set("sim.run_ms", "ms", perPass("sim.run"), nil)
	res.set("sim.up_ns_per_op", "ns", float64(upSim)/float64(max(upOps, 1)), nil)
	res.set("sim.smp_ns_per_op", "ns", float64(smpSim)/float64(max(smpOps, 1)), nil)
	res.set("sim.context_switches", "count", float64(first.ContextSwitches), nil)
	res.set("sim.preemptions", "count", float64(first.Preemptions), nil)
	res.set("sim.timer_ticks", "count", float64(first.TimerTicks), nil)
	res.set("sim.cycles", "count", float64(first.Cycles), nil)
	res.set("mem.hits", "count", float64(first.MemHits), nil)
	res.set("mem.misses", "count", float64(first.MemMisses), nil)
	res.set("mem.evictions", "count", float64(first.MemEvictions), nil)
	res.set("disk.reads", "count", float64(first.DiskReads), nil)
	res.set("disk.writes", "count", float64(first.DiskWrites), nil)
	res.set("disk.queue_wait_cycles", "count", float64(first.DiskQueueWait), nil)
	res.set("fsprof.ops", "count", float64(first.Ops), nil)
	res.set("core.fold_encode_ms", "ms", perPass("core.fold")+ms(encode)/float64(rounds), nil)
	res.set("store.put_ms", "ms", perPass("store.put"), nil)
	res.set("record.alloc_bytes_per_op", "B", float64(alloc.bytes)/float64(max(allOps, 1)), nil)
	res.set("record.allocs_per_op", "count", float64(alloc.objects)/float64(max(allOps, 1)), nil)
	setOverhead(res, "trace.overhead_pct", pairedOverhead(traceOff, traceOn))
	setOverhead(res, "load.overhead_pct", pairedOverhead(loadOff, loadOn))
	setOverhead(res, "osbench.span_overhead_pct", pairedOverhead(plainW, spannedW))
	return tr.write(filepath.Join(buildDir, "spans"), fmt.Sprintf("record-seed%d.tsv", cfg.seed))
}

// setOverhead reports the median of paired overheads, keeping the
// pairs as its samples so the report carries their quartiles.
func setOverhead(res *results, name string, pairs []float64) {
	res.set(name, "%", distOf(pairs).Median, pairs)
}

//go:embed record_pins.txt
var pinsText string

// pinned parses record_pins.txt: one line per seed with the digest of
// every spec's run ID and counters, then the seed's totals of context
// switches, preemptions and timer ticks for a human reader.
func pinned() map[int64]string {
	out := make(map[int64]string)
	for _, line := range strings.Split(pinsText, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, _, _ := strings.Cut(line, " ")
		if n, err := strconv.ParseInt(seed, 10, 64); err == nil {
			out[n] = line
		}
	}
	return out
}

// pinLine renders one seed's pin from an untraced pass.
func pinLine(seed int64, recs []recorded) string {
	sum := sha256.New()
	var tot counters
	for _, r := range recs {
		fmt.Fprintln(sum, r.key())
		tot.add(r.c)
	}
	return fmt.Sprintf("%d %s cs=%d preemptions=%d ticks=%d", seed,
		hex.EncodeToString(sum.Sum(nil))[:32], tot.ContextSwitches, tot.Preemptions, tot.TimerTicks)
}

// printPins records an untraced pass for each seed in "LO-HI" and
// prints its pin line: the way record_pins.txt is regenerated after a
// change that is meant to alter the simulated worlds.
func printPins(span string, stdout, stderr io.Writer) int {
	lo, hi, ok := strings.Cut(span, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || a > b {
		fmt.Fprintln(stderr, "osbench: --pin wants LO-HI")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(stderr, "osbench: %v\n", err)
		return 2
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for seed := a; seed <= b; seed++ {
		specs, err := recordSpecs(seed)
		var recs []recorded
		var req int64
		if err == nil {
			recs, _, err = pass(specs, filepath.Join(buildDir, "tmp"), nil, "record", &req)
		}
		if err != nil {
			fmt.Fprintf(stderr, "osbench: seed %d: %v\n", seed, err)
			return 1
		}
		fmt.Fprintln(w, pinLine(seed, recs))
		w.Flush()
	}
	return 0
}

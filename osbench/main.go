// Command osbench is osprof's benchmark: one program, three workloads,
// one result schema. It builds nothing itself; osbench/run.sh compiles
// it from the checkout's sources and runs it from the repository root:
//
//	bash osbench/run.sh --workload record|ingest|query --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics named in
// BENCHMARK.json with no tracing in the measured code. With --trace 1
// it measures the per-layer metrics instead: it wraps a span around
// every call the workload makes into a layer's public function, keeps
// the spans in memory, writes them under .bench_build/spans, derives
// each layer's self time and reports what the tracing itself cost.
// metrics.json maps every layer metric to the end-to-end metric it
// should move.
//
// Every run checks the program's outputs (pinned record counters,
// ingest acknowledgements and parity, query verdict parity) and prints
// a host-stamped table of every metric with its sample count, median
// and quartiles, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tmp      string // per-run scratch directory under buildDir
}

// duration is the measured phase's length.
func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// results accumulates one run's metrics and correctness verdicts.
type results struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	units     map[string]string
	dists     map[string]dist
}

func newResults() *results {
	return &results{values: map[string]float64{}, units: map[string]string{}, dists: map[string]dist{}}
}

// set records a metric with the samples it was derived from (nil when
// it is a single exact count or ratio).
func (r *results) set(name, unit string, value float64, samples []float64) {
	r.values[name], r.units[name] = value, unit
	if samples == nil {
		samples = []float64{value}
	}
	r.dists[name] = distOf(samples)
}

// alias records name as another name for the metric of.
func (r *results) alias(name, of string) {
	r.values[name], r.units[name], r.dists[name] = r.values[of], r.units[of], r.dists[of]
}

// fail counts n failed operations and keeps the first few reasons.
func (r *results) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// manifest is the part of BENCHMARK.json the benchmark reads: which
// metrics the final line must carry, and their units.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var workloads = map[string]func(config, *results) error{
	"record": runRecord,
	"ingest": runIngest,
	"query":  runQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("osbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fset.StringVar(&cfg.workload, "workload", "", "record, ingest or query")
	fset.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fset.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase")
	fset.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	pins := fset.String("pin", "", "print record pins for seeds `LO-HI` instead of benchmarking")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *pins != "" {
		return printPins(*pins, stdout, stderr)
	}
	work, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "osbench: usage: --workload record|ingest|query --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg.trace = traceFlag == 1

	var man manifest
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &man)
	}
	if err != nil {
		fmt.Fprintf(stderr, "osbench: run from the repository root: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(stderr, "osbench: %v\n", err)
		return 2
	}
	cfg.tmp, err = os.MkdirTemp(filepath.Join(buildDir, "tmp"), cfg.workload+"-*")
	if err != nil {
		fmt.Fprintf(stderr, "osbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(cfg.tmp)

	res := newResults()
	if err := work(cfg, res); err != nil {
		fmt.Fprintf(stderr, "osbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	want := man.EndToEnd
	if cfg.trace {
		want = man.PerLayer
	}
	return emit(cfg, res, want, stdout, stderr)
}

// emit writes the host-stamped report (to buildDir/reports and, as a
// table, to stdout) and then the one-line result other tools read.
// Per-layer metrics a workload does not exercise read 0; an end-to-end
// metric missing from a workload is a benchmark bug.
func emit(cfg config, res *results, want []manifestMetric, stdout, stderr io.Writer) int {
	out := make(map[string]outMetric, len(want))
	for _, m := range want {
		v, ok := res.values[m.Name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "osbench: %s does not measure end-to-end metric %s\n", cfg.workload, m.Name)
			return 1
		}
		if ok && res.units[m.Name] != m.Unit {
			fmt.Fprintf(stderr, "osbench: metric %s measured in %s, BENCHMARK.json says %s\n", m.Name, res.units[m.Name], m.Unit)
			return 1
		}
		out[m.Name] = outMetric{Value: v, Unit: m.Unit}
	}

	h := stampHost()
	fmt.Fprintf(stdout, "osbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s source=%.16s\n",
		h.GOMAXPROCS, h.NProc, h.CPU, h.GoVersion, h.Commit, h.Source)
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-30s %14s %-7s %6s %14s %14s %14s\n", "metric", "value", "unit", "n", "median", "q1", "q3")
	for _, n := range names {
		d := res.dists[n]
		fmt.Fprintf(stdout, "%-30s %14.6g %-7s %6d %14.6g %14.6g %14.6g\n", n, res.values[n], res.units[n], d.N, d.Median, d.Q1, d.Q3)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "osbench: check failed: %s\n", p)
	}

	correct := res.failed == 0 && len(res.problems) == 0
	rep := runReport{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: h, Correct: correct, Attempted: res.attempted, Failed: res.failed, Problems: res.problems,
	}
	for _, n := range names {
		rep.Metrics = append(rep.Metrics, reportMetric{Name: n, Value: res.values[n], Unit: res.units[n], Samples: res.dists[n]})
	}
	if err := writeJSON(filepath.Join(buildDir, "reports"),
		fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)), rep); err != nil {
		fmt.Fprintf(stderr, "osbench: report: %v\n", err)
	}

	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "osbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the full record of one run, written under buildDir/reports.
type runReport struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     bool           `json:"trace"`
	Host      host           `json:"host"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Problems  []string       `json:"problems,omitempty"`
	Metrics   []reportMetric `json:"metrics"`
}

type reportMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples dist    `json:"samples"`
}

// host identifies the machine and the code a run measured.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// Commit is the VCS revision the binary was built from, when the
	// checkout is a repository; Source is a SHA-256 over every .go
	// file and go.mod under the root, which names the code either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func stampHost() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sourceDigest hashes the Go sources under root, skipping hidden and
// build directories.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == buildDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s %d\n", filepath.ToSlash(path), len(data))
		sum.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))
}

func writeJSON(dir, file string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setupRepeats is how many times each run sets its workload up.
const setupRepeats = 11

// timeSetup runs setup setupRepeats times, tearing down all but the
// last, and records setup_s as the median process CPU time a set-up
// took, so one slow set-up cannot move it. Each set-up starts after a
// full collection and runs with the collector paused: otherwise its
// cost would depend on how much headroom the heap goal leaves, which
// grows with every set-up whose worlds stay reachable, and a run's
// set-ups would split into slow ones that collect and fast ones that
// do not. The wall time is setup_wall_s and the bytes a set-up
// allocates setup_alloc_mb in the run report.
func timeSetup[T any](res *results, setup func() (T, error), teardown func(T)) (T, error) {
	var last T
	var secs, cpus, mbs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0, c0, a0 := time.Now(), cpuTime(), allocated()
		v, err := setup()
		secs = append(secs, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		mbs = append(mbs, float64(allocated()-a0)/(1<<20))
		debug.SetGCPercent(gc)
		if err != nil {
			return last, err
		}
		last = v
	}
	res.set("setup_s", "s", distOf(cpus).Median, cpus)
	res.set("setup_wall_s", "s", distOf(secs).Median, secs)
	res.set("setup_alloc_mb", "MB", distOf(mbs).Median, mbs)
	return last, nil
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"osprof/internal/serve"
	"osprof/internal/store"
)

// stack is the self-hosted service the ingest and query workloads
// drive: serve.New at default Options over an open archive, listening
// on a loopback port.
type stack struct {
	arch    *store.Archive
	sv      *serve.Server
	handler http.Handler
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
}

func startStack(arch *store.Archive) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{
		arch:   arch,
		sv:     serve.New(arch, serve.Options{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}},
	}
	st.handler = st.sv.Handler()
	st.srv = &http.Server{Handler: st.handler}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// close stops the server, waits for it to exit and closes the service,
// which flushes coalesced deltas. The archive directory stays.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a timeout leaves nothing to clean beyond Close
	st.srv.Close()
	<-st.served
	st.client.CloseIdleConnections()
	_ = st.sv.Close()
}

// do sends one request over loopback HTTP and returns its status and body.
func (st *stack) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, st.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// mustOK sends a set-up request that has to succeed.
func (st *stack) mustOK(method, path string, body []byte) ([]byte, error) {
	code, out, err := st.do(method, path, body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, code, out)
	}
	return out, err
}

// call is one prepared request of a closed-loop phase.
type call struct {
	method, path string
	body         []byte
	ops          int  // operations it completes when answered with 200
	kind         int  // request class, workload-specific
	ref          int  // index into the workload's own request list
	keep         bool // keep the response body for checking
}

// reply is what a call got back. body is set only for kept calls.
type reply struct {
	code int
	body []byte
}

// phaseRounds is how many rounds a service workload's measured phase
// is cut into.
const phaseRounds = 10

// phase is one closed-loop pass over a workload's measured requests,
// in rounds. Each round's requests are made before it starts, untimed,
// and each round is measured on its own, so a transient stall moves
// one round's figures rather than the run's medians.
type phase struct {
	samples []sample  // each tagged with its round
	rounds  []reading // per round
	// harnessBytes is what the in-process transport itself allocated:
	// the copies of kept response bodies. Subtracting it leaves the
	// server's allocations.
	harnessBytes atomic.Uint64
}

// runRounds sends phaseRounds rounds of requests in a closed loop:
// next(r) makes round r's calls, one list per client, and check sees
// each round's calls and replies once it is over; neither is timed.
// Each round goes first over loopback HTTP to web, which is what a user
// of the service sees: client, sockets and server. Then, when direct
// is not nil, the same calls go straight into direct's handler on
// requests built before the round starts, through a reused response
// writer, so that round's CPU time and allocations are the server's
// own. Alternating the two transports round by round puts both under
// the same host conditions.
func runRounds(web, direct *stack, next func(r int) ([][]call, error), check func([][]call, [][]reply) error) (httpPh, serverPh *phase, err error) {
	httpPh, serverPh = &phase{}, &phase{}
	sinks := make([]*sink, clients())
	for c := range sinks {
		sinks[c] = &sink{h: http.Header{}}
	}
	for r := 0; r < phaseRounds; r++ {
		calls, err := next(r)
		if err != nil {
			return nil, nil, err
		}
		replies, err := httpPh.round(r, calls, func(c, k int) (int, []byte, error) {
			cl := calls[c][k]
			code, out, err := web.do(cl.method, cl.path, cl.body)
			if !cl.keep {
				out = nil
			}
			return code, out, err
		})
		if err == nil {
			err = check(calls, replies)
		}
		if err != nil {
			return nil, nil, err
		}
		if direct == nil {
			continue
		}
		reqs := make([][]*http.Request, len(calls))
		for c := range calls {
			for _, cl := range calls[c] {
				var rd io.Reader
				if cl.body != nil {
					rd = bytes.NewReader(cl.body)
				}
				reqs[c] = append(reqs[c], httptest.NewRequest(cl.method, cl.path, rd))
			}
		}
		replies, err = serverPh.round(r, calls, func(c, k int) (int, []byte, error) {
			sk := sinks[c]
			sk.reset()
			direct.handler.ServeHTTP(sk, reqs[c][k])
			var out []byte
			if calls[c][k].keep {
				out = append(make([]byte, 0, sk.buf.Len()), sk.buf.Bytes()...)
				serverPh.harnessBytes.Add(uint64(cap(out)))
			}
			return sk.code, out, nil
		})
		if err == nil {
			err = check(calls, replies)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return httpPh, serverPh, nil
}

// round runs one measured round of a closed loop in which send sends
// call k of client c.
func (ph *phase) round(r int, calls [][]call, send func(c, k int) (int, []byte, error)) ([][]reply, error) {
	replies := make([][]reply, len(calls))
	for c := range calls {
		replies[c] = make([]reply, len(calls[c]))
	}
	runtime.GC()
	m := startMeter()
	samples, err := closedLoop(len(calls), len(calls[0]), func(c, k int) (sample, error) {
		cl := calls[c][k]
		t0 := time.Now()
		code, out, err := send(c, k)
		if err != nil {
			return sample{}, err
		}
		s := sample{lat: time.Since(t0), ops: cl.ops, kind: cl.kind, round: r}
		if code != http.StatusOK {
			s.ops = 0
		}
		replies[c][k] = reply{code: code, body: out}
		return s, nil
	})
	ph.rounds = append(ph.rounds, m.Stop())
	ph.samples = append(ph.samples, samples...)
	return replies, err
}

// sink is a reusable in-process http.ResponseWriter: its header map
// and body buffer are cleared, not reallocated, between requests.
type sink struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.buf.Write(p)
}

func (s *sink) reset() {
	clear(s.h)
	s.code = 0
	s.buf.Reset()
}

// clients is the closed-loop client count: two, or fewer on a host
// with fewer CPUs, so load never exceeds nproc goroutines.
func clients() int { return min(2, runtime.NumCPU()) }

// sample is one completed request.
type sample struct {
	lat   time.Duration // how long it took
	ops   int           // operations it completed (envelopes, requests)
	kind  int           // request class, workload-specific
	round int           // the round of its phase
}

// closedLoop runs n client goroutines, each sending steps requests;
// each sends its next request only after the previous one completed.
// step sends request k of client c and returns its sample, or an error
// that ends the run.
func closedLoop(n, steps int, step func(c, k int) (sample, error)) ([]sample, error) {
	per := make([][]sample, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				s, err := step(c, k)
				if err != nil {
					errs[c] = err
					return
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, errors.Join(errs...)
}

// split groups samples of the given kind (any kind when kind < 0) by
// the round they ran in.
func split(ph *phase, kind int) [][]sample {
	by := make([][]sample, len(ph.rounds))
	for _, s := range ph.samples {
		if kind < 0 || s.kind == kind {
			by[s.round] = append(by[s.round], s)
		}
	}
	return by
}

func lats(ss []sample) latencies {
	out := make(latencies, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

func ops(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.ops
	}
	return n
}

// setMedian records a metric as the median of its values per round
// or pass.
func setMedian(res *results, name, unit string, values []float64) {
	res.set(name, unit, distOf(values).Median, values)
}

// setHTTP records what a user of the service sees in an HTTP phase:
// throughput and peak live heap as medians over its rounds, latency at
// the median (latency_ms) and 99th percentile (tail_ms), and, reported
// but not gated, the CPU time and bytes per operation of the whole
// process, clients included.
func setHTTP(res *results, ph *phase) {
	var rate, cpu, alloc, heap []float64
	for r, ss := range split(ph, -1) {
		if n := float64(ops(ss)); n > 0 {
			m := ph.rounds[r]
			rate = append(rate, n/m.wall.Seconds())
			cpu = append(cpu, m.cpuMs/n)
			alloc = append(alloc, m.allocKB/n)
			heap = append(heap, m.heapMB)
		}
	}
	setMedian(res, "ops_per_s", "1/s", rate)
	setMedian(res, "http_cpu_ms_per_op", "ms", cpu)
	setMedian(res, "http_alloc_kb_per_op", "kB", alloc)
	setMedian(res, "heap_peak_mb", "MB", heap)
	setPercentiles(res, ph, -1, "latency_ms", "tail_ms")
}

// setServer records the gated figures of a direct phase: the server's
// CPU time per operation as the median over rounds, and the bytes it
// allocated per operation over the whole phase, less what the
// in-process transport allocated.
func setServer(res *results, ph *phase) {
	var cpu, rate []float64
	var kb, n float64
	for r, ss := range split(ph, -1) {
		if k := float64(ops(ss)); k > 0 {
			m := ph.rounds[r]
			cpu = append(cpu, m.cpuMs/k)
			rate = append(rate, k/m.wall.Seconds())
			kb += m.allocKB
			n += k
		}
	}
	harness := float64(ph.harnessBytes.Load()) / 1024
	setMedian(res, "cpu_ms_per_op", "ms", cpu)
	setMedian(res, "server_ops_per_s", "1/s", rate)
	res.set("alloc_kb_per_op", "kB", (kb-harness)/max(n, 1), nil)
	res.set("harness_kb_per_op", "kB", harness/max(n, 1), nil)
}

// setPercentiles records the p50 and p99 of one request kind's
// latencies (any kind when kind < 0) over the whole phase, with the
// per-round values as their spread. Every p99 should rest on at least
// 1,000 samples, so that ten or more lie beyond it; a phase with fewer
// is reported on stderr.
func setPercentiles(res *results, ph *phase, kind int, p50, p99 string) {
	var all latencies
	var a, b []float64
	for _, ss := range split(ph, kind) {
		if len(ss) == 0 {
			continue
		}
		l := lats(ss)
		all = append(all, l...)
		a, b = append(a, l.pct(0.50)), append(b, l.pct(0.99))
	}
	if len(all) < 1000 {
		fmt.Fprintf(os.Stderr, "osbench: %s rests on %d samples, fewer than 1000\n", p99, len(all))
	}
	res.set(p50, "ms", all.pct(0.50), a)
	res.set(p99, "ms", all.pct(0.99), b)
	res.dists[p50] = withN(res.dists[p50], len(all))
	res.dists[p99] = withN(res.dists[p99], len(all))
}

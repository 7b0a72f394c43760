package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"osprof/internal/live"
	"osprof/internal/report"
	"osprof/internal/serve"
	"osprof/internal/store"
)

// This file implements `osprof bench ingest`: the fleet-scale load
// generator. It stands up the serve stack (or targets a running one),
// drives N concurrent recorders that ship delta-envelope batches over
// real HTTP, and reports sustained envelopes/sec plus allocation
// footprint as an osprof-bench-ingest/v1 document — the measurement
// behind the "10k envelopes/sec on one core" ingest budget. After the
// timed window it verifies parity: every recorder's full export must
// dedup against its server-side coalesced accumulation, proving the
// batched/coalesced path archived exactly the state serial ingest
// would have.

// writeBenchDoc prints a bench report document to stdout and, when out
// names a file, writes the same bytes there. It returns the exit code
// for a failed write, 0 on success.
func writeBenchDoc(stdout, stderr io.Writer, out string, doc any) int {
	var buf bytes.Buffer
	err := report.JSON(&buf, doc)
	if err == nil {
		_, err = stdout.Write(buf.Bytes())
	}
	if err == nil && out != "" {
		err = os.WriteFile(out, buf.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	return 0
}

// benchIngestSchema versions the bench report document.
const benchIngestSchema = "osprof-bench-ingest/v1"

// benchIngestDoc is the `osprof bench ingest` report.
type benchIngestDoc struct {
	Schema          string  `json:"schema"`
	Recorders       int     `json:"recorders"`
	Batch           int     `json:"batch"`
	DurationSec     float64 `json:"duration_sec"`
	Envelopes       int64   `json:"envelopes"`
	EnvelopesPerSec float64 `json:"envelopes_per_sec"`
	Requests        int64   `json:"requests"`
	HTTPErrors      int64   `json:"http_errors"`
	Flushed         int     `json:"flushed"`
	Parity          string  `json:"parity"` // "ok" or a failure description

	// Allocation footprint over the timed window (runtime.MemStats
	// deltas: flat TotalAlloc growth per envelope is the "no O(history)
	// work per report" property).
	AllocBytesPerEnvelope float64 `json:"alloc_bytes_per_envelope"`
	HeapAllocBytes        uint64  `json:"heap_alloc_bytes"`
	SysBytes              uint64  `json:"sys_bytes"`
}

// benchWorker drives one recorder: observe, export a delta, batch, and
// ship until the deadline. Latencies follow a deterministic formula so
// reruns generate identical profile shapes.
func benchWorker(id int, base string, batch int, deadline time.Time,
	envelopes, requests, httpErrors *atomic.Int64) *live.Session {
	rec := live.New()
	sess := rec.Session(nil, fmt.Sprintf("bench/worker-%d", id))
	var buf bytes.Buffer
	pending := 0
	ship := func() {
		if pending == 0 {
			return
		}
		requests.Add(1)
		resp, err := http.Post(base+"/v1/ingest", "text/plain", bytes.NewReader(buf.Bytes()))
		if err != nil {
			httpErrors.Add(1)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				httpErrors.Add(1)
			} else {
				envelopes.Add(int64(pending))
			}
		}
		buf.Reset()
		pending = 0
	}
	for i := 0; time.Now().Before(deadline); i++ {
		for j := 0; j < 4; j++ {
			rec.Observe("read", uint64(i*4+j)*2654435761%(1<<24)+1)
		}
		if err := sess.ExportDelta(&buf); err != nil {
			httpErrors.Add(1)
			continue
		}
		pending++
		if pending >= batch {
			ship()
		}
	}
	ship()
	return sess
}

// benchParity verifies the coalesced server state: after a full flush,
// each recorder's full export must dedup (created=false) against the
// accumulation the server archived from its delta chain.
func benchParity(base string, sessions []*live.Session) string {
	for _, sess := range sessions {
		var full bytes.Buffer
		if err := sess.Export(&full); err != nil {
			return fmt.Sprintf("export %s: %v", sess.Name(), err)
		}
		resp, err := http.Post(base+"/v1/ingest", "text/plain", bytes.NewReader(full.Bytes()))
		if err != nil {
			return fmt.Sprintf("parity ingest %s: %v", sess.Name(), err)
		}
		var doc serve.IngestDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return fmt.Sprintf("parity decode %s: %v", sess.Name(), err)
		}
		if doc.Created {
			return fmt.Sprintf("%s: coalesced state diverged from the full export (no dedup)", sess.Name())
		}
	}
	return "ok"
}

// cmdBench dispatches the bench subcommands: `ingest` (fleet-scale
// load generator, this file), `analysis` (summary-tier read-path
// latency, bench_analysis.go), and `load` (load-profiling overhead
// budget, bench_load.go).
func cmdBench(rest []string, recorders, batch int, duration time.Duration,
	target, out string, benchRuns, benchRequests int, stdout, stderr io.Writer) int {
	if len(rest) == 1 && rest[0] == "analysis" {
		return cmdBenchAnalysis(benchRuns, benchRequests, out, stdout, stderr)
	}
	if len(rest) == 1 && rest[0] == "load" {
		return cmdBenchLoad(out, stdout, stderr)
	}
	if len(rest) != 1 || rest[0] != "ingest" {
		fmt.Fprintln(stderr, "osprof: usage: osprof bench ingest [-recorders N] [-batch N] [-duration D] [-target URL] [-out FILE]")
		fmt.Fprintln(stderr, "              osprof bench analysis [-runs N] [-requests N] [-out FILE]")
		fmt.Fprintln(stderr, "              osprof bench load [-out FILE]")
		return 2
	}
	if recorders < 1 || batch < 1 || duration <= 0 {
		fmt.Fprintln(stderr, "osprof: bench ingest needs -recorders >= 1, -batch >= 1, -duration > 0")
		return 2
	}

	base := target
	if base == "" {
		// Self-hosted: the full serve stack over a throwaway archive,
		// on a loopback port — real HTTP, real store, no fixtures.
		dir, err := os.MkdirTemp("", "osprof-bench-*")
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		defer os.RemoveAll(dir)
		arch, err := store.Open(dir)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		sv := serve.New(arch, serve.Options{})
		defer sv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		defer ln.Close()
		go http.Serve(ln, sv.Handler())
		base = "http://" + ln.Addr().String()
	}

	var envelopes, requests, httpErrors atomic.Int64
	sessions := make([]*live.Session, recorders)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < recorders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i] = benchWorker(i, base, batch, deadline, &envelopes, &requests, &httpErrors)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	// Drain the coalescer, then verify parity against the full exports.
	flushed := 0
	resp, err := http.Post(base+"/v1/flush", "application/json", nil)
	if err != nil {
		httpErrors.Add(1)
	} else {
		var fl serve.FlushDoc
		if err := json.NewDecoder(resp.Body).Decode(&fl); err == nil {
			flushed = fl.Flushed
		}
		resp.Body.Close()
	}
	parity := benchParity(base, sessions)

	doc := benchIngestDoc{
		Schema:          benchIngestSchema,
		Recorders:       recorders,
		Batch:           batch,
		DurationSec:     elapsed.Seconds(),
		Envelopes:       envelopes.Load(),
		EnvelopesPerSec: float64(envelopes.Load()) / elapsed.Seconds(),
		Requests:        requests.Load(),
		HTTPErrors:      httpErrors.Load(),
		Flushed:         flushed,
		Parity:          parity,
		HeapAllocBytes:  ms1.HeapAlloc,
		SysBytes:        ms1.Sys,
	}
	if n := envelopes.Load(); n > 0 {
		doc.AllocBytesPerEnvelope = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	}
	if code := writeBenchDoc(stdout, stderr, out, doc); code != 0 {
		return code
	}
	if doc.HTTPErrors > 0 || doc.Parity != "ok" {
		fmt.Fprintf(stderr, "osprof: bench ingest failed: %d http errors, parity %s\n",
			doc.HTTPErrors, doc.Parity)
		return 1
	}
	return 0
}

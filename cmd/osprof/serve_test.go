package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/live"
	"osprof/internal/report"
	"osprof/internal/serve"
	"osprof/internal/store"
)

// TestServeSubcommandEndToEnd binds the serve stack on a random port
// (exactly what cmdServe does, minus the blocking accept loop on the
// test goroutine), then drives the ingest -> list -> self-diff
// workflow over real HTTP.
func TestServeSubcommandEndToEnd(t *testing.T) {
	ln, handler, sv, err := listenArchive(t.TempDir(), "127.0.0.1:0", false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer sv.Close()
	go http.Serve(ln, handler)
	base := "http://" + ln.Addr().String()

	// A live-session envelope, as a self-profiling program exports it.
	rec := live.New()
	rec.Observe("handler", 1_000)
	rec.Observe("handler", 1_100)
	var env bytes.Buffer
	if err := rec.Session(nil, "cli-app").Export(&env); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(base+"/v1/ingest", "text/plain", bytes.NewReader(env.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ing serve.IngestDoc
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ing.Created || ing.Name != "cli-app" {
		t.Fatalf("ingest over HTTP: status=%d doc=%+v", resp.StatusCode, ing)
	}

	listResp, err := http.Get(base + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var runs report.RunListDoc
	if err := json.NewDecoder(listResp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 1 || runs.Runs[0].ID != ing.ID {
		t.Fatalf("runs listing: %+v", runs)
	}

	diffResp, err := http.Get(base + "/v1/diff/" + ing.ID + "/latest:cli-app")
	if err != nil {
		t.Fatal(err)
	}
	defer diffResp.Body.Close()
	var rep diff.Report
	if err := json.NewDecoder(diffResp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Changed != 0 || len(rep.Ops) == 0 {
		t.Fatalf("self-diff over HTTP: %+v", rep)
	}
}

// The pprof endpoints only exist when the flag asks for them: a
// profiling surface on a fleet-facing listener must be deliberate.
func TestServePprofOptIn(t *testing.T) {
	for _, on := range []bool{false, true} {
		ln, handler, sv, err := listenArchive(t.TempDir(), "127.0.0.1:0", on, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		go http.Serve(ln, handler)
		resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if on && resp.StatusCode != http.StatusOK {
			t.Errorf("-pprof: /debug/pprof/cmdline status %d", resp.StatusCode)
		}
		if !on && resp.StatusCode != http.StatusNotFound {
			t.Errorf("default: /debug/pprof/cmdline status %d, want 404", resp.StatusCode)
		}
		// The service endpoints work either way.
		resp, err = http.Get("http://" + ln.Addr().String() + "/v1/runs")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof=%v: /v1/runs status %d", on, resp.StatusCode)
		}
		sv.Close()
		ln.Close()
	}
}

func TestServeUsageErrors(t *testing.T) {
	if code, _, errOut := exec(t, "serve", "extra"); code != 2 || errOut == "" {
		t.Errorf("positional arg: exit=%d stderr=%q", code, errOut)
	}
	if code, _, _ := exec(t, "serve", "-addr", "definitely:not:an:addr", "-archive", t.TempDir()); code != 2 {
		t.Errorf("bad addr: exit=%d", code)
	}
}

// populateArchive stores n distinct runs under one live fingerprint
// (same configuration, different collected data) and returns the
// archive and the run IDs in record order.
func populateArchive(t *testing.T, dir string, n int) (*store.Archive, []string) {
	t.Helper()
	arch, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < n; i++ {
		rec := live.New()
		for j := 0; j <= i; j++ {
			rec.Observe("op", uint64(1000*(j+1)))
		}
		id, created, err := rec.Session(nil, "gc-app").Commit(arch)
		if err != nil || !created {
			t.Fatalf("populate %d: id=%q created=%v err=%v", i, id, created, err)
		}
		ids = append(ids, id)
	}
	return arch, ids
}

func TestArchiveGCKeepsNewestAndPinnedBaselines(t *testing.T) {
	dir := t.TempDir()
	arch, ids := populateArchive(t, dir, 4)
	// Pin the oldest run as the baseline: GC must not remove it.
	if err := arch.SetBaseline(mustRun(t, arch, ids[0]).Fingerprint, ids[0]); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := exec(t, "archive", "gc", "-keep", "1", "-archive", dir)
	if code != 0 {
		t.Fatalf("gc exit=%d stderr=%s", code, errOut)
	}
	// ids[3] is newest (kept), ids[0] is the baseline (pinned); 1 and 2
	// must be reported removed.
	for _, id := range ids[1:3] {
		if !strings.Contains(out, fmt.Sprintf("removed %.12s", id)) {
			t.Errorf("run %.12s not reported removed:\n%s", id, out)
		}
	}
	// The CLI ran in its own archive handle; reopen to observe its
	// writes (an open Archive serves its own in-memory index).
	arch, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("after gc: %d entries, want 2\n%s", len(entries), out)
	}
	for _, keep := range []string{ids[0], ids[3]} {
		if _, err := arch.Get(keep); err != nil {
			t.Errorf("kept run %.12s unreadable after gc: %v", keep, err)
		}
	}
	for _, gone := range ids[1:3] {
		if _, err := arch.Get(gone); err == nil {
			t.Errorf("run %.12s still readable after gc", gone)
		}
	}
}

func TestArchiveGCJSON(t *testing.T) {
	dir := t.TempDir()
	_, ids := populateArchive(t, dir, 3)
	code, out, errOut := exec(t, "archive", "gc", "-keep", "1", "-json", "-archive", dir)
	if code != 0 {
		t.Fatalf("gc -json exit=%d stderr=%s", code, errOut)
	}
	var doc struct {
		Schema  string   `json:"schema"`
		Keep    int      `json:"keep"`
		Removed []string `json:"removed"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("gc -json: %v\n%s", err, out)
	}
	if doc.Schema != "osprof-gc/v1" || doc.Keep != 1 || len(doc.Removed) != 2 ||
		doc.Removed[0] != ids[0] || doc.Removed[1] != ids[1] {
		t.Fatalf("gc doc: %+v (ids %v)", doc, ids)
	}
}

func TestArchiveListTextAndJSON(t *testing.T) {
	dir := t.TempDir()
	_, ids := populateArchive(t, dir, 2)

	code, out, _ := exec(t, "archive", "list", "-archive", dir)
	if code != 0 {
		t.Fatalf("list exit=%d", code)
	}
	for _, id := range ids {
		if !strings.Contains(out, id[:12]) || !strings.Contains(out, "gc-app") {
			t.Errorf("listing misses %.12s:\n%s", id, out)
		}
	}

	code, out, _ = exec(t, "archive", "list", "-json", "-archive", dir)
	if code != 0 {
		t.Fatalf("list -json exit=%d", code)
	}
	var doc report.RunListDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("list -json: %v\n%s", err, out)
	}
	if doc.Schema != report.RunsSchema || len(doc.Runs) != 2 || doc.Runs[1].ID != ids[1] {
		t.Fatalf("list -json doc: %+v", doc)
	}
}

func TestArchiveUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"archive"},
		{"archive", "frobnicate"},
		{"archive", "gc", "extra"},
	} {
		if code, _, _ := exec(t, args...); code != 2 {
			t.Errorf("%v: exit=%d, want 2", args, code)
		}
	}
}

// mustRun loads an archived run by ID.
func mustRun(t *testing.T, arch *store.Archive, id string) *core.Run {
	t.Helper()
	run, err := arch.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// Closing the shutdown channel makes serveUntil stop accepting, finish
// the requests already in flight, and return cleanly — the testable
// core of the SIGINT/SIGTERM handling in cmdServe.
func TestServeUntilDrainsInFlightRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "drained")
	})

	shutdown := make(chan struct{})
	var msg bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serveUntil(ln, handler, shutdown, 5*time.Second, &msg) }()

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- "request failed: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()

	<-started
	close(shutdown) // SIGINT arrives mid-request
	// Shutdown must wait for the handler, not kill it.
	select {
	case err := <-done:
		t.Fatalf("serveUntil returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if got := <-body; got != "drained" {
		t.Fatalf("in-flight response = %q, want %q", got, "drained")
	}
	if !strings.Contains(msg.String(), "shutting down") {
		t.Errorf("missing shutdown message, got %q", msg.String())
	}
}

// A handler that outlives the drain timeout must not hang shutdown
// forever: serveUntil gives up after the timeout and reports the error.
func TestServeUntilDrainTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	})

	shutdown := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- serveUntil(ln, handler, shutdown, 10*time.Millisecond, io.Discard) }()
	go http.Get("http://" + ln.Addr().String())

	<-started
	close(shutdown)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("drain timeout with a stuck handler reported no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil hung past the drain timeout")
	}
}

// With no shutdown signal, a listener failure still surfaces as an
// error (the pre-graceful-shutdown behavior).
func TestServeUntilListenerFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveUntil(ln, http.NotFoundHandler(), nil, time.Second, io.Discard) }()
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("closed listener reported no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil did not notice the dead listener")
	}
}

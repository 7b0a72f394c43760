package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"osprof/internal/report"
	"osprof/internal/serve"
	"osprof/internal/store"
)

// This file implements the service and archive-maintenance
// subcommands: `osprof serve` exposes the run archive over HTTP/JSON
// (ingest, list, diff, baselines) so the record/diff workflow works
// over the network, and `osprof archive` wires the store's
// housekeeping (list, gc) that previously had no CLI reach.

// listenArchive opens the archive, builds the service, and binds the
// listener: the testable half of cmdServe. Using addr ":0" (or
// "127.0.0.1:0") picks a free port; the chosen address is printed
// before serving starts so scripts can scrape it. The returned Server
// owns the delta coalescer: the caller drives FlushOverdue
// periodically and Close on shutdown so coalesced state cannot be
// stranded. withPprof adds the net/http/pprof profiling endpoints
// under /debug/pprof/ — off by default; the profiler profiled is
// opt-in, never ambient. Damage healed at open is reported on stderr.
func listenArchive(archiveDir, addr string, withPprof bool, stderr io.Writer) (net.Listener, http.Handler, *serve.Server, error) {
	arch, err := openArchive(archiveDir, stderr)
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	sv := serve.New(arch, serve.Options{})
	handler := sv.Handler()
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	return ln, handler, sv, nil
}

// serveUntil serves handler on ln until shutdown closes, then drains
// in-flight requests for at most the drain timeout before returning.
// It is the testable half of cmdServe: the caller owns the shutdown
// signal, so tests can trigger it without delivering real signals.
func serveUntil(ln net.Listener, handler http.Handler, shutdown <-chan struct{},
	drain time.Duration, stdout io.Writer) error {
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case <-shutdown:
		fmt.Fprintf(stdout, "osprof: shutting down (draining up to %s)\n", drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-errc // Serve has returned ErrServerClosed
		return err
	}
}

// cmdServe implements `osprof serve`: a long-running HTTP/JSON service
// over the archive. It blocks until the listener fails or the process
// receives SIGINT/SIGTERM, then shuts down gracefully, draining
// in-flight requests for up to the -drain timeout.
func cmdServe(rest []string, archiveDir, addr string, drain time.Duration,
	withPprof bool, stdout, stderr io.Writer) int {
	if len(rest) != 0 {
		fmt.Fprintf(stderr, "osprof: serve takes no positional arguments, got %q\n", rest)
		return 2
	}
	ln, handler, sv, err := listenArchive(archiveDir, addr, withPprof, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Age-based flushing bounds how long a coalesced delta can sit
	// unarchived while its chain goes quiet.
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if _, err := sv.FlushOverdue(); err != nil {
					fmt.Fprintf(stderr, "osprof: flush: %v\n", err)
				}
			}
		}
	}()

	fmt.Fprintf(stdout, "osprof: serving archive %q at http://%s\n", archiveDir, ln.Addr())
	serveErr := serveUntil(ln, handler, ctx.Done(), drain, stdout)
	<-flusherDone
	// Drained: archive whatever the coalescer still holds.
	if err := sv.Close(); err != nil {
		fmt.Fprintf(stderr, "osprof: final flush: %v\n", err)
		if serveErr == nil {
			serveErr = err
		}
	}
	if serveErr != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", serveErr)
		return 2
	}
	return 0
}

// cmdArchive implements `osprof archive list|gc`. The list subcommand
// mirrors GET /v1/runs' cursor paging: -limit bounds the page, -after
// resumes past a previous page's last sequence number, and -label
// restricts the listing to runs carrying that corpus label (the Seq
// cursor then pages the filtered sequence, as GET /v1/runs?label=
// does). Without any flag the full listing (and its JSON document) is
// byte-identical to before paging existed.
func cmdArchive(rest []string, archiveDir string, keep, limit, after int,
	label string, jsonOut bool, stdout, stderr io.Writer) int {
	if len(rest) != 1 || (rest[0] != "list" && rest[0] != "gc") {
		fmt.Fprintln(stderr, "osprof: usage: osprof archive list [-limit N] [-after SEQ] [-label L] | osprof archive gc [-keep N]")
		return 2
	}
	arch, err := openArchive(archiveDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "osprof: %v\n", err)
		return 2
	}
	switch rest[0] {
	case "list":
		if limit < 0 || after < 0 {
			fmt.Fprintln(stderr, "osprof: archive list needs -limit >= 0 and -after >= 0")
			return 2
		}
		row := func(e store.Entry) {
			labelCol := ""
			if e.Label != "" {
				labelCol = " label=" + e.Label
			}
			fmt.Fprintf(stdout, "run %-4d %.12s fingerprint=%.12s %s%s\n",
				e.Seq, e.ID, orDash(e.Fingerprint), e.Name, labelCol)
		}
		if limit > 0 || after > 0 || label != "" {
			entries, more, err := arch.ListPage(label, after, limit)
			if err != nil {
				fmt.Fprintf(stderr, "osprof: %v\n", err)
				return 2
			}
			if jsonOut {
				if err := report.JSON(stdout, report.RunPage(entries, more)); err != nil {
					fmt.Fprintf(stderr, "osprof: %v\n", err)
					return 2
				}
				return 0
			}
			for _, e := range entries {
				row(e)
			}
			if more && len(entries) > 0 {
				fmt.Fprintf(stdout, "more runs follow: resume with -after %d\n",
					entries[len(entries)-1].Seq)
			}
			return 0
		}
		entries, err := arch.List()
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		if jsonOut {
			if err := report.JSON(stdout, report.RunList(entries)); err != nil {
				fmt.Fprintf(stderr, "osprof: %v\n", err)
				return 2
			}
			return 0
		}
		for _, e := range entries {
			row(e)
		}
		return 0

	case "gc":
		removed, err := arch.GC(keep)
		if err != nil {
			fmt.Fprintf(stderr, "osprof: %v\n", err)
			return 2
		}
		if jsonOut {
			doc := struct {
				Schema  string   `json:"schema"`
				Keep    int      `json:"keep"`
				Removed []string `json:"removed"`
			}{Schema: "osprof-gc/v1", Keep: keep, Removed: removed}
			if doc.Removed == nil {
				doc.Removed = []string{}
			}
			if err := report.JSON(stdout, doc); err != nil {
				fmt.Fprintf(stderr, "osprof: %v\n", err)
				return 2
			}
			return 0
		}
		for _, id := range removed {
			fmt.Fprintf(stdout, "removed %.12s\n", id)
		}
		fmt.Fprintf(stdout, "gc: kept newest %d per fingerprint (baselines pinned), removed %d runs\n",
			keep, len(removed))
		return 0
	}
	return 2
}

// orDash substitutes "-" for an empty fingerprint in listings.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

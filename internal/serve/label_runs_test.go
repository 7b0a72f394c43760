package serve_test

import (
	"fmt"
	"net/http"
	"testing"

	"osprof/internal/report"
	"osprof/internal/serve"
)

// GET /v1/runs?label= composes with cursor paging: the Seq cursor
// walks the filtered sequence without overlap or loss, stepping over
// unlabeled and differently labeled runs.
func TestRunsLabelPaging(t *testing.T) {
	sv, _ := newServer(t, serve.Options{})
	h := sv.Handler()

	// Ingest runs with labels cell-a, (none), cell-b cycling — five
	// cell-a runs scattered through the sequence.
	labels := []string{"cell-a", "", "cell-b", "cell-a", "", "cell-a", "cell-b", "cell-a", "", "cell-a"}
	var wantIDs []string
	for i, l := range labels {
		var ing serve.IngestDoc
		// Distinct latencies keep each envelope's content address unique
		// so every ingest appends an index entry.
		body := labeledEnvelope(t, l, map[string][]uint64{"read": {uint64(100 * (i + 1))}})
		do(t, h, http.MethodPost, "/v1/ingest", body, http.StatusOK, &ing)
		if l == "cell-a" {
			wantIDs = append(wantIDs, ing.ID)
		}
	}

	var got []string
	after, pages := 0, 0
	for {
		var page report.RunListDoc
		do(t, h, http.MethodGet, fmt.Sprintf("/v1/runs?label=cell-a&limit=2&after=%d", after), nil, http.StatusOK, &page)
		pages++
		for _, r := range page.Runs {
			if r.Label != "cell-a" {
				t.Fatalf("filtered page leaked label %q (seq %d)", r.Label, r.Seq)
			}
			got = append(got, r.ID)
		}
		if !page.Truncated {
			break
		}
		if page.NextAfter == 0 {
			t.Fatalf("truncated page without cursor: %+v", page)
		}
		after = page.NextAfter
	}
	if pages != 3 || len(got) != len(wantIDs) {
		t.Fatalf("paging: %d pages, %d runs, want 3 pages of %d", pages, len(got), len(wantIDs))
	}
	for i, id := range wantIDs {
		if got[i] != id {
			t.Fatalf("page order: got[%d]=%s want %s", i, got[i], id)
		}
	}

	// An unknown label pages to an empty, unTruncated document.
	var empty report.RunListDoc
	do(t, h, http.MethodGet, "/v1/runs?label=ghost&limit=2", nil, http.StatusOK, &empty)
	if len(empty.Runs) != 0 || empty.Truncated {
		t.Fatalf("unknown label: %+v", empty)
	}

	// The unfiltered listing still carries every run, labels mirrored
	// on the labeled ones only.
	var all report.RunListDoc
	do(t, h, http.MethodGet, "/v1/runs", nil, http.StatusOK, &all)
	if len(all.Runs) != len(labels) {
		t.Fatalf("full listing: %d runs, want %d", len(all.Runs), len(labels))
	}
	for i, r := range all.Runs {
		if r.Label != labels[i] {
			t.Fatalf("run %d label = %q, want %q", i, r.Label, labels[i])
		}
	}
}

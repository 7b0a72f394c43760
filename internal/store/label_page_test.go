package store

import "testing"

// TestListPageByLabelPaging pins the label filter's interaction with the
// Seq cursor: the cursor pages the *filtered* sequence, so resuming
// with the last returned entry's Seq never skips or repeats a matching
// run, whatever unlabeled (or differently labeled) entries sit between
// them.
func TestListPageByLabelPaging(t *testing.T) {
	a := open(t)
	put := func(i int, label string) {
		t.Helper()
		run := testRun("fp", "s", uint64(100+i))
		if label != "" {
			run.Meta[LabelMetaKey] = label
		}
		if _, _, err := a.Put(run); err != nil {
			t.Fatal(err)
		}
	}
	// Seqs 1..9: "cell" on the odd seqs, "other" on 4 and 6, the rest
	// unlabeled — so every filtered page has gaps to step over.
	labels := []string{"cell", "", "cell", "other", "cell", "other", "cell", "", "cell"}
	for i, l := range labels {
		put(i, l)
	}

	// Walk label "cell" with limit 2: pages [1 3] [5 7] [9], each
	// resumed from the previous page's last Seq.
	var got []int
	after, pages := 0, 0
	for {
		entries, more, err := a.ListPage("cell", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, e := range entries {
			if e.Label != "cell" {
				t.Fatalf("filtered page leaked label %q (seq %d)", e.Label, e.Seq)
			}
			got = append(got, e.Seq)
		}
		if !more {
			break
		}
		if len(entries) == 0 {
			t.Fatal("more=true with an empty page cannot make progress")
		}
		after = entries[len(entries)-1].Seq
	}
	want := []int{1, 3, 5, 7, 9}
	if pages != 3 || len(got) != len(want) {
		t.Fatalf("walk: %d pages, seqs %v, want 3 pages of %v", pages, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order: %v, want %v", got, want)
		}
	}

	// A label whose matches exactly fill the limit reports more=false:
	// the scan runs past the page to prove nothing follows.
	entries, more, err := a.ListPage("other", 0, 2)
	if err != nil || len(entries) != 2 || more {
		t.Fatalf("exact-fit page: entries=%d more=%v err=%v", len(entries), more, err)
	}

	// Unknown labels page to nothing, without error.
	if entries, more, err = a.ListPage("ghost", 0, 2); err != nil || len(entries) != 0 || more {
		t.Fatalf("unknown label: entries=%d more=%v err=%v", len(entries), more, err)
	}

	// An empty label pages every entry, labeled or not: seqs 4..7, with
	// 8 and 9 still to come.
	entries, more, err = a.ListPage("", 3, 4)
	if err != nil || !more || len(entries) != 4 {
		t.Fatalf("empty label: entries=%d more=%v err=%v", len(entries), more, err)
	}
	for i, e := range entries {
		if e.Seq != 4+i {
			t.Fatalf("empty-label page = %+v, want seqs 4..7", entries)
		}
	}
}

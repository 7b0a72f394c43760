package store

import (
	"fmt"
	"sync"
	"testing"

	"osprof/internal/core"
)

// PutBatch must behave exactly like the equivalent serial Puts: same
// results, same entries, same dedup — including dedup against earlier
// runs of the same batch.
func TestPutBatchMatchesSerialPuts(t *testing.T) {
	batch := []*core.Run{
		testRun("fp1", "s", 100),
		testRun("fp2", "o", 200),
		testRun("fp1", "s", 100),      // identical to [0]: dedup within the batch
		testRun("fp1", "s", 100, 300), // different content: appends
	}

	serial := open(t)
	var want []PutResult
	for _, r := range batch {
		id, created, err := serial.Put(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, PutResult{ID: id, Created: created})
	}

	batched := open(t)
	got, err := batched.PutBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results: %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	se, _ := serial.List()
	be, _ := batched.List()
	if len(se) != len(be) {
		t.Fatalf("entry counts diverge: serial %d, batched %d", len(se), len(be))
	}
	for i := range se {
		if se[i] != be[i] {
			t.Errorf("entry %d: serial %+v, batched %+v", i, se[i], be[i])
		}
	}
}

func TestPutBatchEmpty(t *testing.T) {
	a := open(t)
	res, err := a.PutBatch(nil)
	if err != nil || res != nil {
		t.Errorf("PutBatch(nil) = %v, %v", res, err)
	}
}

func TestListPage(t *testing.T) {
	a := open(t)
	var ids []string
	for i := 0; i < 7; i++ {
		id, _, err := a.Put(testRun(fmt.Sprintf("fp%d", i), "s", uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var got []string
	after, pages := 0, 0
	for {
		page, more, err := a.ListPage("", after, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page {
			got = append(got, e.ID)
		}
		pages++
		if !more {
			break
		}
		after = page[len(page)-1].Seq
	}
	if pages != 3 {
		t.Errorf("paged through in %d pages, want 3", pages)
	}
	if len(got) != len(ids) {
		t.Fatalf("paged %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Errorf("page order: entry %d = %s, want %s", i, short(got[i]), short(ids[i]))
		}
	}
	// Cursor past the end: empty page, no more.
	if page, more, _ := a.ListPage("", 1_000_000, 3); len(page) != 0 || more {
		t.Errorf("past-the-end page: %v more=%v", page, more)
	}
	// limit <= 0 means everything.
	if page, more, _ := a.ListPage("", 0, 0); len(page) != 7 || more {
		t.Errorf("unlimited page: %d entries more=%v", len(page), more)
	}
}

// Filling segments past the rotation threshold must seal and start new
// ones transparently: everything stays listable, across reopen, and
// Compact folds the history back into one segment per shard.
func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.segLimit = 4 // force rotation quickly
	const n = 20
	var ids []string
	for i := 0; i < n; i++ {
		id, created, err := a.Put(testRun("fp-rot", "s", uint64(100+i)))
		if err != nil || !created {
			t.Fatalf("Put %d: created=%v err=%v", i, created, err)
		}
		ids = append(ids, id)
	}
	if err := a.SetBaseline("fp-rot", ids[n-1]); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir); len(segs) < 2 {
		t.Fatalf("%d segment files after %d appends with limit 4, want rotation", len(segs), n+1)
	}
	check := func(b *Archive, stage string) {
		t.Helper()
		entries, err := b.List()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if len(entries) != n {
			t.Fatalf("%s: %d entries, want %d", stage, len(entries), n)
		}
		for i, e := range entries {
			if e.ID != ids[i] {
				t.Fatalf("%s: entry %d = %s, want %s", stage, i, short(e.ID), short(ids[i]))
			}
		}
		if e, ok, _ := b.Baseline("fp-rot"); !ok || e.ID != ids[n-1] {
			t.Fatalf("%s: baseline %+v ok=%v", stage, e, ok)
		}
	}
	check(a, "after rotation")

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(reopened, "after reopen")

	if err := reopened.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	perShard := map[string]int{}
	for _, p := range segs {
		perShard[p[:len(p)-len("/seg-00000000")]]++
	}
	for sh, c := range perShard {
		if c != 1 {
			t.Errorf("shard %s holds %d segments after Compact, want 1", sh, c)
		}
	}
	check(reopened, "after compact")

	final, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(final, "after compact reopen")
}

// Readers are lock-free snapshot loads: listings, lookups, and pages
// must stay consistent while a writer storm is appending (exercised
// hardest under -race).
func TestConcurrentReadersDuringWrites(t *testing.T) {
	a := open(t)
	if _, _, err := a.Put(testRun("fp-seed", "seed", 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				entries, err := a.List()
				if err != nil || len(entries) == 0 {
					t.Errorf("List during writes: %d entries, %v", len(entries), err)
					return
				}
				last := 0
				for _, e := range entries {
					if e.Seq <= last {
						t.Errorf("snapshot out of order: seq %d after %d", e.Seq, last)
						return
					}
					last = e.Seq
				}
				if _, _, err := a.ListPage("", entries[0].Seq, 5); err != nil {
					t.Errorf("ListPage during writes: %v", err)
					return
				}
				if _, ok, _ := a.Latest("fp-seed"); !ok {
					t.Error("seed entry vanished mid-write")
					return
				}
			}
		}()
	}
	var werr error
	var wmu sync.Mutex
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				if _, _, err := a.Put(testRun(fmt.Sprintf("fp-w%d", w), "s", uint64(1000*w+i))); err != nil {
					wmu.Lock()
					werr = err
					wmu.Unlock()
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	entries, _ := a.List()
	if len(entries) != 1+4*25 {
		t.Errorf("%d entries after storm, want %d", len(entries), 1+4*25)
	}
}

package serve

import (
	"fmt"
	"testing"

	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/store"
)

// memoRun is a one-op run under fingerprint fp, labeled when label is
// non-empty.
func memoRun(fp, label string, lat uint64) *core.Run {
	set := core.NewSet(fp)
	set.Record("read", lat)
	run := &core.Run{Fingerprint: fp, Set: set}
	if label != "" {
		run.Meta = map[string]string{classify.LabelMetaKey: label}
	}
	return run
}

// TestCorpusMemoHitAllocationFree pins the corpus memo's hit path to
// the index tail: a hit allocates nothing, whether the archive holds
// 1,000 or 10,000 runs. The memo must still rebuild after a labeled
// Put and after GC.
func TestCorpusMemoHitAllocationFree(t *testing.T) {
	arch, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Label a is recorded twice under one fingerprint, so GC(1) drops
	// its older run.
	seed := []*core.Run{
		memoRun("fp-a", "a", 1<<6), memoRun("fp-a", "a", 1<<7), memoRun("fp-b", "b", 1<<20),
	}
	if _, err := arch.PutBatch(seed); err != nil {
		t.Fatal(err)
	}
	fill := func(to int) {
		t.Helper()
		var batch []*core.Run
		for n, _ := arch.Tail(); n < to; n++ {
			batch = append(batch, memoRun(fmt.Sprintf("filler-%d", n), "", 1<<10))
		}
		if _, err := arch.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s := New(arch, Options{}).s
	hitAllocs := func() float64 {
		t.Helper()
		built, err := s.identifyCorpus()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if c, err := s.identifyCorpus(); err != nil || c != built {
				t.Fatalf("memo hit returned %p, %v; want the built corpus %p", c, err, built)
			}
		})
	}
	for _, runs := range []int{1_000, 10_000} {
		fill(runs)
		if allocs := hitAllocs(); allocs != 0 {
			t.Errorf("corpus memo hit over %d runs: %v allocs, want 0", runs, allocs)
		}
	}

	before, err := s.identifyCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := arch.Put(memoRun("fp-c", "c", 1<<12)); err != nil {
		t.Fatal(err)
	}
	afterPut, err := s.identifyCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if afterPut == before || len(afterPut.Centroids) != 3 {
		t.Fatalf("labeled Put: corpus labels %v, want a rebuild with a, b, c", afterPut.Labels())
	}

	removed, err := arch.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("GC removed %d runs, want the older run of label a", len(removed))
	}
	afterGC, err := s.identifyCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if afterGC == afterPut || afterGC.Centroids[0].Label != "a" || afterGC.Centroids[0].Runs != 1 {
		t.Fatalf("GC: centroid %s has %d runs, want a rebuild with 1 run of a",
			afterGC.Centroids[0].Label, afterGC.Centroids[0].Runs)
	}
}

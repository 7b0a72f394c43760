package core

import (
	"sync"
	"testing"
)

func hammer(p *ConcurrentProfile, workers, perWorker int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.Record(w, 100) // all hit the same bucket: worst case
			}
		}()
	}
	wg.Wait()
}

func TestLockedModeNeverLoses(t *testing.T) {
	p := NewConcurrentProfileR("op", 1, Locked, 0)
	hammer(p, 8, 10_000)
	if lost := p.Lost(); lost != 0 {
		t.Errorf("locked mode lost %d updates", lost)
	}
	if p.Snapshot().Count != 80_000 {
		t.Errorf("count = %d, want 80000", p.Snapshot().Count)
	}
}

func TestShardedModeNeverLoses(t *testing.T) {
	// §3.4 solution 2: "we make each process or thread update its own
	// profile in memory. This prevents lost updates on systems with
	// any number of CPUs."
	p := NewConcurrentProfileR("op", 1, Sharded, 8)
	hammer(p, 8, 10_000)
	if lost := p.Lost(); lost != 0 {
		t.Errorf("sharded mode lost %d updates", lost)
	}
	snap := p.Snapshot()
	if snap.Count != 80_000 {
		t.Errorf("count = %d, want 80000", snap.Count)
	}
	if snap.Buckets[BucketFor(100, 1)] != 80_000 {
		t.Errorf("bucket population = %d", snap.Buckets[BucketFor(100, 1)])
	}
}

func TestUnsyncModeSingleThreadExact(t *testing.T) {
	p := NewConcurrentProfileR("op", 1, Unsync, 0)
	for i := 0; i < 1000; i++ {
		p.Record(0, uint64(i))
	}
	if lost := p.Lost(); lost != 0 {
		t.Errorf("single-threaded unsync lost %d updates", lost)
	}
}

func TestUnsyncModeMayLoseButBounded(t *testing.T) {
	// §3.4: unsynchronized updates may lose a small fraction of
	// updates under concurrency; verify the accounting never goes
	// negative and losses stay a small fraction, as the paper found
	// (<1% even in the worst case on 2 CPUs).
	p := NewConcurrentProfileR("op", 1, Unsync, 0)
	hammer(p, 2, 50_000)
	att, lost := p.Attempts(), p.Lost()
	if att != 100_000 {
		t.Fatalf("attempts = %d", att)
	}
	if lost > att/2 {
		t.Errorf("unsync lost %d of %d updates: implausibly lossy", lost, att)
	}
	if p.Snapshot().Count+lost != att {
		t.Errorf("accounting broken: count=%d lost=%d attempts=%d",
			p.Snapshot().Count, lost, att)
	}
}

func TestLockingModeString(t *testing.T) {
	for m, want := range map[LockingMode]string{
		Unsync: "unsync", Locked: "locked", Sharded: "sharded",
		LockingMode(99): "unknown",
	} {
		if m.String() != want {
			t.Errorf("String(%d) = %q", int(m), m.String())
		}
	}
}

func TestConcurrentSnapshotIsPlainProfile(t *testing.T) {
	p := NewConcurrentProfileR("op", 1, Sharded, 4)
	p.Record(0, 10)
	p.Record(3, 1000)
	snap := p.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Error(err)
	}
	if snap.Count != 2 {
		t.Errorf("count = %d", snap.Count)
	}
}

// Regression: Snapshot used to merge only bucket counts, so Total, Min
// and Max were lost and Mean() reported 0 no matter what was recorded.
func TestConcurrentSnapshotPreservesTotals(t *testing.T) {
	for _, mode := range []LockingMode{Unsync, Locked, Sharded} {
		p := NewConcurrentProfileR("op", 1, mode, 4)
		// Matching single-writer reference profile.
		want := NewProfile("op")
		for i, lat := range []uint64{10, 1000, 250, 3} {
			p.Record(i, lat)
			want.Record(lat)
		}
		snap := p.Snapshot()
		if snap.Total != want.Total {
			t.Errorf("%v: Total = %d, want %d", mode, snap.Total, want.Total)
		}
		if snap.Min != want.Min || snap.Max != want.Max {
			t.Errorf("%v: Min/Max = %d/%d, want %d/%d",
				mode, snap.Min, snap.Max, want.Min, want.Max)
		}
		if snap.Mean() != want.Mean() {
			t.Errorf("%v: Mean = %d, want %d", mode, snap.Mean(), want.Mean())
		}
	}
}

func TestConcurrentSnapshotEmpty(t *testing.T) {
	snap := NewConcurrentProfileR("op", 1, Sharded, 4).Snapshot()
	if snap.Count != 0 || snap.Total != 0 || snap.Min != 0 || snap.Max != 0 {
		t.Errorf("empty snapshot not zero: %+v", snap)
	}
}

func TestShardedNegativeShardDoesNotPanic(t *testing.T) {
	p := NewConcurrentProfileR("op", 1, Sharded, 4)
	p.Record(-1, 100)
	p.Record(-5, 100)
	if n := p.Snapshot().Count; n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

func TestConcurrentProfileResolution(t *testing.T) {
	p := NewConcurrentProfileR("op", 2, Sharded, 2)
	// Matching single-writer reference profile at the same resolution.
	want := NewProfileR("op", 2)
	for i, lat := range []uint64{3, 100, 5_000, 1 << 30} {
		p.Record(i%2, lat)
		want.Record(lat)
	}
	snap := p.Snapshot()
	if snap.R != 2 {
		t.Fatalf("snapshot resolution = %d, want 2", snap.R)
	}
	if len(snap.Buckets) != NumBuckets(2) {
		t.Fatalf("snapshot buckets = %d, want %d", len(snap.Buckets), NumBuckets(2))
	}
	for b := range want.Buckets {
		if snap.Buckets[b] != want.Buckets[b] {
			t.Errorf("bucket %d = %d, want %d", b, snap.Buckets[b], want.Buckets[b])
		}
	}
	if p.Lost() != 0 {
		t.Errorf("lost %d updates", p.Lost())
	}
}

// Snapshot must be callable while writers are still recording (the
// live-profiling export path): every intermediate snapshot passes the
// bucket-sum checksum and counts grow monotonically, and under -race
// this doubles as the proof that no mode's write path races with
// Snapshot's reads.
func TestSnapshotUnderConcurrentWrite(t *testing.T) {
	for _, mode := range []LockingMode{Unsync, Locked, Sharded} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			p := NewConcurrentProfileR("op", 1, mode, 4)
			const workers, perWorker = 4, 20_000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						p.Record(w, uint64(i%1024+1))
					}
				}()
			}
			var last uint64
			for i := 0; i < 100; i++ {
				snap := p.Snapshot()
				if err := snap.Validate(); err != nil {
					t.Fatalf("mid-write snapshot: %v", err)
				}
				// Monotonic growth holds only for the lossless modes:
				// Unsync's racing read-modify-writes can legitimately
				// move a bucket value backwards.
				if mode != Unsync && snap.Count < last {
					t.Fatalf("count went backwards: %d -> %d", last, snap.Count)
				}
				// A snapshot racing a shard's first Record must not
				// export the ^0 min sentinel as a real minimum.
				if snap.Count > 0 && snap.Min > snap.Max {
					t.Fatalf("garbage header mid-write: min=%d max=%d count=%d",
						snap.Min, snap.Max, snap.Count)
				}
				last = snap.Count
			}
			wg.Wait()
			final := p.Snapshot()
			if err := final.Validate(); err != nil {
				t.Error(err)
			}
			if mode != Unsync && final.Count != workers*perWorker {
				t.Errorf("%v: final count = %d, want %d", mode, final.Count, workers*perWorker)
			}
		})
	}
}

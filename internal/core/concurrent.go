package core

import "sync/atomic"

// This file implements the three bucket-update strategies discussed in
// §3.4 "Profile Locking". Bucket increments are not atomic by default;
// the paper measured that on a dual-CPU system fewer than 1% of updates
// are lost without locking, adopted lock-free updates for small CPU
// counts, and per-thread profiles for larger ones.

// LockingMode selects how concurrent bucket updates are synchronized.
type LockingMode int

const (
	// Unsync performs read-modify-write updates without any
	// synchronization: concurrent updates to the same bucket may be
	// lost, exactly like the paper's default mode. (The individual
	// loads and stores are atomic so the behavior is well defined;
	// only the increment is lossy.)
	Unsync LockingMode = iota

	// Locked uses atomic increments ("the lock prefix on i386"), which
	// never lose updates but serialize all CPUs on the bucket line.
	Locked

	// Sharded gives each thread its own bucket array, merged at read
	// time; no updates are lost on systems with any number of CPUs, as
	// long as each concurrent writer uses its own shard. Writers that
	// share a shard degrade to Unsync-style lossy updates.
	Sharded
)

func (m LockingMode) String() string {
	switch m {
	case Unsync:
		return "unsync"
	case Locked:
		return "locked"
	case Sharded:
		return "sharded"
	}
	return "unknown"
}

// shardPad separates shards by a cache line to avoid false sharing.
const shardPad = 8

// shardTotals carries the per-shard scalar aggregates (the Profile
// header fields: Total, Min, Max) alongside the bucket array, padded to
// cache lines so neighboring shards do not false-share. Each field is
// updated with the same discipline as the shard's bucket counters:
// lossy load/store for Unsync, atomic add/CAS for Locked, and plain
// single-writer updates for Sharded. The total, written on every
// record, sits on its own line, so reading the rarely written extremes
// does not wait on it.
type shardTotals struct {
	total uint64
	_     [7]uint64
	min   uint64 // ^uint64(0) until the first record lands
	max   uint64
	_     [6]uint64
}

// ConcurrentProfile is a histogram safe for use from multiple
// goroutines, with a selectable update strategy. All bucket and header
// updates go through atomic loads and stores (lossy or not according to
// Mode), so Snapshot may run at any time, concurrently with writers,
// and observes a well-defined (if slightly stale) state — the property
// the live Recorder API relies on to export profiles from a running
// program without stopping it.
type ConcurrentProfile struct {
	Op     string
	R      int
	Mode   LockingMode
	shards [][]uint64
	totals []shardTotals
	// attempts counts Record calls (always atomically), so the number
	// of lost updates is observable: Lost = attempts - sum(buckets).
	attempts atomic.Uint64
}

// NewConcurrentProfileR creates a concurrent histogram for op at
// resolution r (buckets per doubling of latency, like NewProfileR).
// shards is the number of per-thread bucket arrays used in Sharded
// mode (ignored otherwise; one array is used). New code constructs
// collectors through the live Recorder options (internal/live,
// re-exported as osprof.NewRecorder) instead.
func NewConcurrentProfileR(op string, r int, mode LockingMode, shards int) *ConcurrentProfile {
	if r < 1 {
		r = 1
	}
	if mode != Sharded || shards < 1 {
		shards = 1
	}
	p := &ConcurrentProfile{Op: op, R: r, Mode: mode, totals: make([]shardTotals, shards)}
	for i := 0; i < shards; i++ {
		p.shards = append(p.shards, make([]uint64, NumBuckets(r)+shardPad))
		p.totals[i].min = ^uint64(0)
	}
	return p
}

// Record sorts one latency into its bucket. In Sharded mode, shard
// should identify the calling thread (e.g., a per-goroutine index);
// other modes ignore it.
//
// Every mode publishes the sample's min and max before its bucket, so
// a Snapshot that observes the count also observes the header extremes.
// Locked and Sharded publish the total first too.
func (p *ConcurrentProfile) Record(shard int, latency uint64) {
	p.attempts.Add(1)
	b := BucketFor(latency, p.R)
	switch p.Mode {
	case Unsync:
		// Lossy read-modify-write: two concurrent updaters can both
		// read n and both store n+1. The total is as lossy as the
		// buckets and goes last: its store, contended on every record,
		// would otherwise widen the bucket race this mode measures.
		t := &p.totals[0]
		t.storeExtremes(latency)
		addr := &p.shards[0][b]
		atomic.StoreUint64(addr, atomic.LoadUint64(addr)+1)
		atomic.StoreUint64(&t.total, atomic.LoadUint64(&t.total)+latency)
	case Locked:
		t := &p.totals[0]
		atomic.AddUint64(&t.total, latency)
		for {
			cur := atomic.LoadUint64(&t.min)
			if latency >= cur || atomic.CompareAndSwapUint64(&t.min, cur, latency) {
				break
			}
		}
		for {
			cur := atomic.LoadUint64(&t.max)
			if latency <= cur || atomic.CompareAndSwapUint64(&t.max, cur, latency) {
				break
			}
		}
		atomic.AddUint64(&p.shards[0][b], 1)
	case Sharded:
		// Single writer per shard by contract, so a load/store pair
		// loses nothing; using atomics (rather than plain ++) keeps
		// Snapshot safe to run concurrently with writers. The index is
		// folded into range (Go's % keeps the dividend's sign, and a
		// caller-supplied negative shard must not panic a production
		// recorder).
		i := shard % len(p.shards)
		if i < 0 {
			i += len(p.shards)
		}
		t := &p.totals[i]
		atomic.StoreUint64(&t.total, atomic.LoadUint64(&t.total)+latency)
		t.storeExtremes(latency)
		addr := &p.shards[i][b]
		atomic.StoreUint64(addr, atomic.LoadUint64(addr)+1)
	}
}

// storeExtremes folds latency into min and max with load/store pairs:
// exact for a single writer, lossy under concurrent ones.
func (t *shardTotals) storeExtremes(latency uint64) {
	if latency < atomic.LoadUint64(&t.min) {
		atomic.StoreUint64(&t.min, latency)
	}
	if latency > atomic.LoadUint64(&t.max) {
		atomic.StoreUint64(&t.max, latency)
	}
}

// Snapshot merges all shards into a plain Profile, including the
// Total/Min/Max header fields, so derived statistics (Mean, automated
// analysis ordering by Total) work on the result.
//
// Snapshot is safe to call while writers are still recording: every
// bucket is read atomically and Count is derived from the observed
// bucket populations, so the result always passes Validate. Updates
// that land mid-snapshot may be split between this snapshot and the
// next (the header Total can lag or lead the buckets by the in-flight
// operations), exactly the staleness a live /proc-style export has.
func (p *ConcurrentProfile) Snapshot() *Profile {
	out := NewProfileR(p.Op, p.R)
	n := NumBuckets(p.R)
	hasMin := false
	for i, sh := range p.shards {
		var shardCount uint64
		for b := 0; b < n; b++ {
			c := atomic.LoadUint64(&sh[b])
			out.Buckets[b] += c
			shardCount += c
		}
		t := &p.totals[i]
		out.Total += atomic.LoadUint64(&t.total)
		if shardCount > 0 {
			// Writers publish min and max before the bucket, so a
			// counted shard's extremes are already set.
			if min := atomic.LoadUint64(&t.min); !hasMin || min < out.Min {
				out.Min = min
				hasMin = true
			}
			if max := atomic.LoadUint64(&t.max); max > out.Max {
				out.Max = max
			}
		}
		out.Count += shardCount
	}
	return out
}

// Attempts returns the number of Record calls so far.
func (p *ConcurrentProfile) Attempts() uint64 { return p.attempts.Load() }

// Lost returns how many updates were dropped by concurrent
// unsynchronized increments (always 0 for Locked and Sharded once all
// writers have stopped).
func (p *ConcurrentProfile) Lost() uint64 {
	var sum uint64
	n := NumBuckets(p.R)
	for _, sh := range p.shards {
		for b := 0; b < n; b++ {
			sum += atomic.LoadUint64(&sh[b])
		}
	}
	att := p.attempts.Load()
	if sum >= att {
		return 0
	}
	return att - sum
}

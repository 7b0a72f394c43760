// Package live implements in-process ("live") OSprof collection: the
// paper's method is designed to profile running systems with negligible
// overhead (§3.1, §3.4), not just to replay figures, so this package
// lets any Go program feed its own request latencies into the same
// analysis, archive, and differential machinery the simulated
// experiments use.
//
// The central type is Recorder, a set of per-operation concurrent
// histograms constructed from functional options (resolution, locking
// mode, shard count, sampling interval, clock source). Its Record hot
// path is allocation-free — the property that makes always-on
// profiling viable, mirroring the paper's ~200-cycle per-operation
// budget (§5.2) — and its Snapshot can run at any time, concurrently
// with writers, because the underlying core.ConcurrentProfile reads
// every bucket atomically.
//
// Sessions (session.go) name a collection window, snapshot it into a
// core.Set, and export it as a versioned run envelope or directly into
// a store.Archive. Wrappers (wrap.go) instrument stdlib boundaries:
// io.Reader/io.Writer, net.Conn, and http.Handler.
package live

import (
	"sync"
	"time"

	"osprof/internal/core"
	"osprof/internal/cycles"
)

// Option configures a Recorder at construction time.
type Option func(*Recorder)

// WithResolution sets the bucket resolution (buckets per doubling of
// latency, like core.NewProfileR). The default is 1, the paper's
// choice for efficiency; 2 doubles the resolution at negligible cost.
func WithResolution(r int) Option {
	return func(rec *Recorder) {
		if r >= 1 {
			rec.res = r
		}
	}
}

// WithLockingMode selects the §3.4 concurrent bucket-update strategy:
// Unsync (lossy, cheapest — the paper's default), Locked (atomic
// increments), or Sharded (per-thread bucket arrays, merged at read
// time).
func WithLockingMode(m core.LockingMode) Option {
	return func(rec *Recorder) { rec.mode = m }
}

// WithShards sets the number of per-thread bucket arrays used in
// Sharded mode; each concurrent writer should pass its own shard index
// to RecordShard. Ignored in the other modes.
func WithShards(n int) Option {
	return func(rec *Recorder) {
		if n >= 1 {
			rec.shards = n
		}
	}
}

// WithSampling additionally maintains a time-segmented ("3D", §3.1
// Figure 9) profile per operation, with the given segment interval in
// clock cycles. Sampling takes a per-operation mutex on the record
// path (and allocates when a new segment is materialized), so it costs
// more than plain recording; leave it off for the zero-allocation hot
// path. Each timeline is bounded to 8192 segments — choose interval so
// interval*8192 covers the window of interest; records past the window
// accumulate in the final segment rather than growing without bound.
func WithSampling(interval cycles.Cycles) Option {
	return func(rec *Recorder) { rec.sample = interval }
}

// WithClock replaces the latency clock. The default clock measures
// wall time with the process-monotonic clock and converts it to the
// repository's simulated-cycle time base (internal/cycles, 1.7 GHz);
// tests substitute deterministic clocks, and callers with access to a
// hardware TSC can plug it in directly, matching the paper's use of
// the TSC register as the time metric.
func WithClock(clock func() cycles.Cycles) Option {
	return func(rec *Recorder) {
		if clock != nil {
			rec.clock = clock
		}
	}
}

// Recorder collects latency profiles from a running program. Create
// one with New, hand it to the instrumentation wrappers (or call
// Record/Start directly), and snapshot it at any time through a
// Session. All methods are safe for concurrent use.
type Recorder struct {
	res    int
	mode   core.LockingMode
	shards int
	sample cycles.Cycles
	clock  func() cycles.Cycles
	epoch  cycles.Cycles // clock value at construction; sampling time base

	mu    sync.RWMutex
	ops   map[string]*collector
	order []string
}

// collector is one operation's live state: the concurrent histogram
// plus the optional time-segmented profile.
type collector struct {
	prof *core.ConcurrentProfile

	mu      sync.Mutex // guards sampled (not needed for prof)
	sampled *core.Sampled
}

// New creates a Recorder with the given options. The zero-option
// default matches the paper's production configuration: resolution 1,
// unsynchronized updates, no sampling, wall-clock cycles.
func New(opts ...Option) *Recorder {
	rec := &Recorder{
		res:    1,
		mode:   core.Unsync,
		shards: 1,
		clock:  defaultClock(),
		ops:    make(map[string]*collector),
	}
	for _, opt := range opts {
		opt(rec)
	}
	rec.epoch = rec.clock()
	return rec
}

// defaultClock returns a process-monotonic wall clock expressed in
// simulated cycles. time.Since reads the runtime's monotonic clock and
// allocates nothing, keeping the Record hot path allocation-free.
func defaultClock() func() cycles.Cycles {
	base := time.Now()
	return func() cycles.Cycles {
		return cycles.FromNanoseconds(float64(time.Since(base)))
	}
}

// Now returns the recorder's current clock value; pass it back to
// Record as the operation's start time.
func (rec *Recorder) Now() cycles.Cycles { return rec.clock() }

// Record sorts one completed operation into op's histogram: the
// latency is the clock's advance since start (a Now result). This is
// the allocation-free hot path. In Sharded mode it records into shard
// 0; concurrent writers should use RecordShard with distinct shards.
func (rec *Recorder) Record(op string, start cycles.Cycles) {
	rec.RecordShard(0, op, start)
}

// RecordShard is Record with an explicit shard index for Sharded mode
// (each concurrent writer uses its own shard, the paper's per-thread
// profiles); other modes ignore the index.
func (rec *Recorder) RecordShard(shard int, op string, start cycles.Cycles) {
	now := rec.clock()
	var lat uint64
	if now > start {
		lat = now - start
	}
	rec.observe(shard, op, now, lat)
}

// Observe records an already-measured latency (callers that timed the
// operation themselves, e.g. the simulation substrate or log replay).
func (rec *Recorder) Observe(op string, latency uint64) {
	rec.ObserveShard(0, op, latency)
}

// ObserveShard is Observe with an explicit shard index.
func (rec *Recorder) ObserveShard(shard int, op string, latency uint64) {
	var now cycles.Cycles
	if rec.sample > 0 {
		now = rec.clock()
	}
	rec.observe(shard, op, now, latency)
}

// observe is the shared record path: a read-locked map hit, an atomic
// histogram update, and (only when sampling is on) a mutex-guarded
// segment update.
func (rec *Recorder) observe(shard int, op string, now cycles.Cycles, latency uint64) {
	rec.mu.RLock()
	c := rec.ops[op]
	rec.mu.RUnlock()
	if c == nil {
		c = rec.materialize(op)
	}
	c.prof.Record(shard, latency)
	if rec.sample > 0 {
		c.mu.Lock()
		c.sampled.Record(now, latency)
		c.mu.Unlock()
	}
}

// maxSampleSegments bounds each operation's materialized timeline: a
// record arriving after long idleness must not allocate one segment
// per elapsed interval (an hour at a 1ms interval would be 3.6M);
// later records collapse into the final segment instead.
const maxSampleSegments = 8192

// materialize creates op's state on first use (the one-time slow path).
func (rec *Recorder) materialize(op string) *collector {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if c := rec.ops[op]; c != nil {
		return c
	}
	c := &collector{prof: core.NewConcurrentProfileR(op, rec.res, rec.mode, rec.shards)}
	if rec.sample > 0 {
		c.sampled = core.NewSampled(op, rec.epoch, rec.sample)
		c.sampled.R = rec.res
		c.sampled.MaxSegments = maxSampleSegments
	}
	rec.ops[op] = c
	rec.order = append(rec.order, op)
	return c
}

// Span is an in-flight operation: a value (never heap-allocated by
// Start) that records its latency when End is called. Child opens
// per-layer sub-spans, so a live program produces the same layered
// shape ("read@fs", "read@disk") the simulation tracer folds out of
// its span trees.
type Span struct {
	rec   *Recorder
	op    string
	base  string // root operation name, the base of every child's name
	shard int
	start cycles.Cycles
}

// Start opens a span for op; defer its End around the operation body.
func (rec *Recorder) Start(op string) Span {
	return Span{rec: rec, op: op, base: op, start: rec.clock()}
}

// StartShard is Start with an explicit shard index for Sharded mode.
func (rec *Recorder) StartShard(shard int, op string) Span {
	return Span{rec: rec, op: op, base: op, shard: shard, start: rec.clock()}
}

// Child opens a sub-span attributing part of the parent operation to
// one layer: ending it records the child's latency under the root
// operation's core.DimLayer name, the one the layered diff and the
// trace subsystem's per-layer folds share. The layer always pairs with
// the root operation, so a child of a child is a sibling in naming
// ("read@disk", never "read@fs@disk"), and child latencies are
// inclusive — the live side has no entry/exit pairing to compute
// self-times from, and the layered analyses only need per-layer
// rows that move together. A zero Span's Child is itself zero, so
// spans handed out after a session ended (and their children) stay
// safe to End — in any order, concurrently with the parent.
func (s Span) Child(layer string) Span {
	if s.rec == nil {
		return Span{}
	}
	return Span{
		rec: s.rec, op: core.DimLayer.Op(s.base, layer), base: s.base,
		shard: s.shard, start: s.rec.clock(),
	}
}

// End records the span's latency. A zero Span is a no-op, so dropped
// or inactive-session spans are safe to End. Ending a parent does not
// end (or invalidate) its children: each span records independently,
// whatever order the Ends arrive in.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	s.rec.RecordShard(s.shard, s.op, s.start)
}

// Snapshot merges every operation's shards into a plain profile set
// named name. It is safe to call while writers are recording; each
// profile observes a consistent (bucket-sum == count) point-in-time
// state, exactly like reading the paper's /proc export on a live
// system.
func (rec *Recorder) Snapshot(name string) *core.Set {
	set := core.NewSetR(name, rec.res)
	rec.mu.RLock()
	defer rec.mu.RUnlock()
	for _, op := range rec.order {
		// The merge cannot fail: both sides share the recorder's
		// resolution by construction.
		_ = set.Get(op).Merge(rec.ops[op].prof.Snapshot())
	}
	return set
}

// Ops returns the recorded operation names in first-use order.
func (rec *Recorder) Ops() []string {
	rec.mu.RLock()
	defer rec.mu.RUnlock()
	return append([]string(nil), rec.order...)
}

// Profile returns op's live concurrent histogram (nil if op was never
// recorded), exposing the lost-update accounting (Attempts, Lost) of
// the §3.4 locking-mode evaluation.
func (rec *Recorder) Profile(op string) *core.ConcurrentProfile {
	rec.mu.RLock()
	defer rec.mu.RUnlock()
	if c := rec.ops[op]; c != nil {
		return c.prof
	}
	return nil
}

// Collector materializes op's histogram (recording nothing) and
// returns it: a pre-resolved handle for hot loops that want the raw
// per-update cost of the configured §3.4 strategy with no map lookup
// or recorder read-lock on the path. Direct Record calls on the
// handle bypass sampling.
func (rec *Recorder) Collector(op string) *core.ConcurrentProfile {
	return rec.materialize(op).prof
}

// Timeline returns a copy of op's time-segmented profile, or nil when
// sampling is off or op was never recorded.
func (rec *Recorder) Timeline(op string) *core.Sampled {
	rec.mu.RLock()
	c := rec.ops[op]
	rec.mu.RUnlock()
	if c == nil || c.sampled == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampled.Clone()
}

// Resolution returns the configured bucket resolution.
func (rec *Recorder) Resolution() int { return rec.res }

// Mode returns the configured locking mode.
func (rec *Recorder) Mode() core.LockingMode { return rec.mode }

// Shards returns the configured shard count.
func (rec *Recorder) Shards() int { return rec.shards }

// SamplingInterval returns the sampling segment length (0 = off).
func (rec *Recorder) SamplingInterval() cycles.Cycles { return rec.sample }

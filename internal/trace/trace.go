// Package trace decomposes simulated request latency across kernel
// layers. Each traced request carries an entry/exit-paired tree of
// layer spans — VFS syscall → file system → page cache → driver →
// disk (and the network for CIFS) — collected from hooks threaded
// through the sim stack. The tree is folded, at request exit, into
// ordinary log-bucket profiles (internal/core) under derived operation
// names (core.DimLayer, core.DimCrit), so every downstream surface
// (envelopes, archive, diff, identify, serve) consumes per-layer data
// with no format change. Per layer, a request records:
//
//	fs         its self-time inside file-system code
//	pagecache  time blocked waiting for a page to become uptodate
//	driver     request queue wait (submit → disk head start)
//	disk       mechanical service time (seek + rotation + transfer)
//	net        time blocked on the simulated network
//	vfs        VFS dispatch self-time
//
// and its *inclusive* latency goes to the critical-path profile of the
// layer holding the largest self-time share.
//
// The decomposition is additive: a child span's inclusive time is
// subtracted from its parent's self-time, and asynchronous disk
// completions credit the driver/disk layers through a generation-
// guarded token (see Token) so a flusher's writeback never pollutes a
// foreground request that already returned.
//
// Hooks are pure observers — they consume no simulated CPU and
// schedule no events — so a run with tracing disabled is byte-
// identical to a run of a build without tracing at all, and a traced
// run keeps the exact same event timeline (only the recorded profile
// set grows).
package trace

import (
	"osprof/internal/core"
	"osprof/internal/load"
	"osprof/internal/sim"
)

// Layer identifies one level of the simulated storage stack, in the
// order of core.DimLayer's values.
type Layer uint8

const (
	LayerVFS Layer = iota
	LayerFS
	LayerPageCache
	LayerDriver
	LayerDisk
	LayerNet
	numLayers
)

// String returns the layer's short name as used in op suffixes.
func (l Layer) String() string {
	if names := core.DimLayer.Values(); int(l) < len(names) {
		return names[l]
	}
	return "layer?"
}

// frame is one open span on a process's layer stack.
type frame struct {
	layer Layer
	start uint64 // ReadTSC at entry
	child uint64 // inclusive time of completed children
}

// procState is the tracer's per-process state. Spans never cross
// processes — a request is one process's journey through the stack —
// so the state needs no locking: the sim kernel runs one process at a
// time.
type procState struct {
	open  bool   // a root span is open
	op    string // root operation name
	gen   uint32 // root generation, guards async Token credits
	skip  int    // depth of entries being ignored (no root open)
	stack []frame
	self  [numLayers]uint64
}

// opHandles caches the derived profiles of one root operation so the
// steady-state fold is allocation-free: names are concatenated and
// profiles created the first time a (op, layer) pair is touched.
type opHandles struct {
	layer [numLayers]*core.Profile
	crit  [numLayers]*core.Profile

	// load is the load-companion handle when the run is conditioned;
	// loadFrom tracks the recorder it was bound against so a later
	// SetLoadRecorder rebinds instead of folding into a stale set.
	load     *load.Handle
	loadFrom *load.Recorder
}

// Tracer collects span trees for every non-daemon process and folds
// them into a profile set. A nil *Tracer is valid and inert: every
// hook is a nil-safe no-op, so the instrumented stack carries tracer
// fields unconditionally and pays nothing when tracing is off.
type Tracer struct {
	set   *core.Set
	procs []procState
	ops   map[string]*opHandles
	loads *load.Recorder
}

// New creates a tracer folding into set.
func New(set *core.Set) *Tracer {
	return &Tracer{set: set, ops: make(map[string]*opHandles)}
}

// SetLoadRecorder makes the tracer also record each request's
// inclusive latency into load-keyed companion profiles. Used when load
// profiling is enabled on a traced run with no fs/user probe — the
// probe otherwise owns the load dimension so samples are not counted
// twice. Nil-safe on a nil tracer.
func (t *Tracer) SetLoadRecorder(r *load.Recorder) {
	if t == nil {
		return
	}
	t.loads = r
}

// state returns the per-process state, growing the dense table on
// first sight of a process.
func (t *Tracer) state(p *sim.Proc) *procState {
	id := p.ID()
	for id >= len(t.procs) {
		t.procs = append(t.procs, procState{})
	}
	return &t.procs[id]
}

// Durations are computed with sim.TSCDelta: TSC skew between simulated
// CPUs can make a migrating process observe a smaller counter at exit
// than at entry, exactly as on real hardware (§5.2), and a negative
// duration must not wrap.

// BeginRoot opens a request's root span at VFS syscall entry. Daemon
// processes are ignored entirely. A nested BeginRoot (a syscall made
// while a root is already open, e.g. through a raw mount handle) opens
// a skip region so the matching EndRoot stays balanced.
func (t *Tracer) BeginRoot(p *sim.Proc, op string) {
	if t == nil || p.Daemon() {
		return
	}
	ps := t.state(p)
	if ps.open || ps.skip > 0 {
		ps.skip++
		return
	}
	ps.open = true
	ps.op = op
	ps.gen++
	ps.self = [numLayers]uint64{}
	ps.stack = append(ps.stack[:0], frame{layer: LayerVFS, start: p.ReadTSC()})
}

// EndRoot closes the root span and folds the finished tree into the
// profile set: one self-time sample per touched layer, plus the
// request's inclusive latency under the dominant layer's critical path.
func (t *Tracer) EndRoot(p *sim.Proc) {
	if t == nil || p.Daemon() {
		return
	}
	ps := t.state(p)
	if ps.skip > 0 {
		ps.skip--
		return
	}
	if !ps.open || len(ps.stack) != 1 {
		// Unbalanced exit (a layer span leaked); drop the tree rather
		// than record garbage. The generation bump already invalidated
		// any outstanding tokens.
		ps.open = false
		ps.stack = ps.stack[:0]
		return
	}
	f := &ps.stack[0]
	incl := sim.TSCDelta(p.ReadTSC(), f.start)
	ps.self[LayerVFS] += sim.TSCDelta(incl, f.child)

	h := t.handles(ps.op)
	if t.loads != nil {
		// Load-conditioned companion profile of the request's inclusive
		// latency. Like every hook this is a pure observation — the load
		// read consumes no simulated time. The handle rides on opHandles
		// so conditioning shares the fold's one map lookup.
		if h.loadFrom != t.loads {
			h.load, h.loadFrom = t.loads.Handle(ps.op), t.loads
		}
		h.load.Record(sim.LoadBand(p.Kernel().Load()), incl)
	}
	dominant, max := LayerVFS, uint64(0)
	for l := Layer(0); l < numLayers; l++ {
		s := ps.self[l]
		if s == 0 {
			continue
		}
		if h.layer[l] == nil {
			h.layer[l] = t.set.Get(core.DimLayer.Op(ps.op, l.String()))
		}
		h.layer[l].Record(s)
		// Ties break toward the lower (outer) layer: deterministic and
		// biased to the layer that saw the time first.
		if s > max {
			max, dominant = s, l
		}
	}
	if h.crit[dominant] == nil {
		h.crit[dominant] = t.set.Get(core.DimCrit.Op(ps.op, dominant.String()))
	}
	h.crit[dominant].Record(incl)
	ps.open = false
	ps.stack = ps.stack[:0]
}

// Enter opens a nested layer span (file system code, a page-cache
// wait, a network receive). Outside a root span it opens a skip region
// so the matching Exit stays balanced.
func (t *Tracer) Enter(p *sim.Proc, l Layer) {
	if t == nil || p.Daemon() {
		return
	}
	ps := t.state(p)
	if !ps.open || ps.skip > 0 {
		ps.skip++
		return
	}
	ps.stack = append(ps.stack, frame{layer: l, start: p.ReadTSC()})
}

// Exit closes the innermost layer span: its self-time (inclusive minus
// children) accumulates into the layer, and its inclusive time becomes
// child time of the enclosing span.
func (t *Tracer) Exit(p *sim.Proc, l Layer) {
	if t == nil || p.Daemon() {
		return
	}
	ps := t.state(p)
	if ps.skip > 0 {
		ps.skip--
		return
	}
	n := len(ps.stack)
	if !ps.open || n < 2 {
		return
	}
	f := ps.stack[n-1]
	ps.stack = ps.stack[:n-1]
	incl := sim.TSCDelta(p.ReadTSC(), f.start)
	ps.self[f.layer] += sim.TSCDelta(incl, f.child)
	ps.stack[n-2].child += incl
}

// handles returns the per-op profile cache, creating the (empty) entry
// on first use. Individual profiles stay nil until a layer is actually
// recorded, so untouched layers never materialize in the set.
func (t *Tracer) handles(op string) *opHandles {
	if h, ok := t.ops[op]; ok {
		return h
	}
	h := &opHandles{}
	t.ops[op] = h
	return h
}

// Token is a generation-guarded reference to the request that
// submitted a disk I/O. The disk layer captures one at submit (where
// the submitting process is known) and credits it at completion with
// the request's queue wait (driver layer) and mechanical service time
// (disk layer). If the root span closed in the meantime — an async
// writeback completing after its initiator returned — the credit is
// dropped. The zero Token is inert.
type Token struct {
	t    *Tracer
	proc int32
	gen  uint32
}

// Token captures a credit token for p's currently open request, or the
// zero Token when tracing is off, p is a daemon, or no root is open.
func (t *Tracer) Token(p *sim.Proc) Token {
	if t == nil || p.Daemon() {
		return Token{}
	}
	ps := t.state(p)
	if !ps.open || ps.skip > 0 {
		return Token{}
	}
	return Token{t: t, proc: int32(p.ID()), gen: ps.gen}
}

// Credit attributes one completed disk I/O to the token's request:
// queueWait to the driver layer, service to the disk layer. Both are
// also added to the request's innermost open span as child time,
// carving the I/O out of the enclosing wait (a page-cache or
// file-system block) so the decomposition stays additive.
func (tok Token) Credit(queueWait, service uint64) {
	if tok.t == nil {
		return
	}
	ps := &tok.t.procs[tok.proc]
	if !ps.open || ps.gen != tok.gen {
		return
	}
	ps.self[LayerDriver] += queueWait
	ps.self[LayerDisk] += service
	if n := len(ps.stack); n > 0 {
		ps.stack[n-1].child += queueWait + service
	}
}

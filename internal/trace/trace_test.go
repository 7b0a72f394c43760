package trace_test

import (
	"testing"

	"osprof/internal/core"
	"osprof/internal/sim"
	"osprof/internal/trace"
)

// drive runs one request body to completion on a 1-CPU kernel: no
// preemption and no competing processes, so Exec advances the TSC by
// exactly the requested cycle count and every fold is predictable.
func drive(body func(p *sim.Proc)) {
	k := sim.New(sim.Config{NumCPUs: 1, ContextSwitch: 100})
	k.Spawn("req", body)
	k.Run()
}

// lookupTotal returns (count, total) for op, zeros when absent.
func lookupTotal(set *core.Set, op string) (uint64, uint64) {
	p := set.Lookup(op)
	if p == nil {
		return 0, 0
	}
	return p.Count, p.Total
}

// A span tree folds into per-layer self-times — inclusive minus
// children at every level — plus one critical-path sample under the
// dominant layer, carrying the request's inclusive latency.
func TestSpanTreeFoldsSelfTimes(t *testing.T) {
	set := core.NewSet("s")
	tr := trace.New(set)
	drive(func(p *sim.Proc) {
		tr.BeginRoot(p, "read")
		p.Exec(100) // vfs self
		tr.Enter(p, trace.LayerFS)
		p.Exec(200) // fs self
		tr.Enter(p, trace.LayerPageCache)
		p.Exec(300) // pagecache self
		tr.Exit(p, trace.LayerPageCache)
		p.Exec(50) // fs self again
		tr.Exit(p, trace.LayerFS)
		p.Exec(25) // vfs self again
		tr.EndRoot(p)
	})
	for op, want := range map[string][2]uint64{
		"read@vfs":            {1, 125},
		"read@fs":             {1, 250},
		"read@pagecache":      {1, 300},
		"read@crit:pagecache": {1, 675}, // dominant layer carries the inclusive latency
	} {
		if count, total := lookupTotal(set, op); count != want[0] || total != want[1] {
			t.Errorf("%s: count=%d total=%d, want %d/%d", op, count, total, want[0], want[1])
		}
	}
	if set.Len() != 4 {
		t.Errorf("unexpected rows: %v", set.Ops())
	}
}

// Daemon processes never trace: their hooks are no-ops and their
// tokens are inert, so background writeback cannot pollute the
// request decomposition.
func TestDaemonProcsIgnored(t *testing.T) {
	set := core.NewSet("s")
	tr := trace.New(set)
	k := sim.New(sim.Config{NumCPUs: 1, ContextSwitch: 100})
	k.SpawnDaemon("flusher", func(p *sim.Proc) {
		tr.BeginRoot(p, "read")
		tr.Enter(p, trace.LayerFS)
		p.Exec(500)
		tr.Exit(p, trace.LayerFS)
		tr.EndRoot(p)
		if tok := tr.Token(p); tok != (trace.Token{}) {
			t.Error("daemon got a live token")
		}
	})
	k.Run()
	if set.Len() != 0 {
		t.Errorf("daemon recorded rows: %v", set.Ops())
	}
}

// A leaked layer span (Enter without Exit) drops the whole tree
// instead of folding garbage; the next request on the same process
// records normally.
func TestUnbalancedTreeDropped(t *testing.T) {
	set := core.NewSet("s")
	tr := trace.New(set)
	drive(func(p *sim.Proc) {
		tr.BeginRoot(p, "read")
		tr.Enter(p, trace.LayerFS)
		p.Exec(100)
		tr.EndRoot(p) // fs span still open: dropped

		tr.BeginRoot(p, "read")
		p.Exec(50)
		tr.EndRoot(p)
	})
	if count, total := lookupTotal(set, "read@vfs"); count != 1 || total != 50 {
		t.Errorf("read@vfs count=%d total=%d, want the second request only (1/50)", count, total)
	}
	if count, _ := lookupTotal(set, "read@fs"); count != 0 {
		t.Error("dropped tree leaked a read@fs row")
	}
}

// A nested syscall (BeginRoot while a root is open) opens a skip
// region: its spans are ignored, the region stays balanced, and the
// outer request's fold is unaffected apart from the time it spent.
func TestNestedRootSkipsBalanced(t *testing.T) {
	set := core.NewSet("s")
	tr := trace.New(set)
	drive(func(p *sim.Proc) {
		tr.BeginRoot(p, "read")
		p.Exec(40)
		tr.BeginRoot(p, "stat") // raw mount handle inside the request
		tr.Enter(p, trace.LayerFS)
		p.Exec(60)
		tr.Exit(p, trace.LayerFS)
		tr.EndRoot(p)
		p.Exec(20)
		tr.EndRoot(p)
	})
	if count, total := lookupTotal(set, "read@vfs"); count != 1 || total != 120 {
		t.Errorf("read@vfs count=%d total=%d, want 1/120 (nested time stays in the outer root)", count, total)
	}
	if set.Lookup("stat@fs") != nil || set.Lookup("stat@vfs") != nil {
		t.Errorf("nested root recorded rows: %v", set.Ops())
	}
}

// Token credits land in the driver/disk layers and are carved out of
// the enclosing wait; a stale token (root already closed) is dropped.
func TestTokenCredits(t *testing.T) {
	set := core.NewSet("s")
	tr := trace.New(set)
	drive(func(p *sim.Proc) {
		tr.BeginRoot(p, "read")
		tr.Enter(p, trace.LayerPageCache)
		p.Exec(1_000) // the page wait the I/O hides inside
		tr.Token(p).Credit(40, 60)
		tr.Exit(p, trace.LayerPageCache)
		tr.EndRoot(p)

		// Stale: captured inside the root, credited after it closed.
		tr.BeginRoot(p, "write")
		tok := tr.Token(p)
		tr.EndRoot(p)
		tok.Credit(100, 200)
	})
	for op, want := range map[string][2]uint64{
		"read@driver":    {1, 40},
		"read@disk":      {1, 60},
		"read@pagecache": {1, 900}, // 1000 inclusive minus the credited I/O
	} {
		if count, total := lookupTotal(set, op); count != want[0] || total != want[1] {
			t.Errorf("%s: count=%d total=%d, want %d/%d", op, count, total, want[0], want[1])
		}
	}
	if set.Lookup("write@driver") != nil || set.Lookup("write@disk") != nil {
		t.Error("stale token credited a closed request")
	}
}

// A nil *Tracer is inert: every hook no-ops, so the instrumented stack
// carries tracer fields unconditionally.
func TestNilTracerSafe(t *testing.T) {
	var tr *trace.Tracer
	drive(func(p *sim.Proc) {
		tr.BeginRoot(p, "read")
		tr.Enter(p, trace.LayerFS)
		tr.Exit(p, trace.LayerFS)
		if tok := tr.Token(p); tok != (trace.Token{}) {
			t.Error("nil tracer issued a live token")
		}
		tr.Token(p).Credit(1, 2)
		tr.EndRoot(p)
	})
}

// The tracer files layer self-times and critical-path samples under
// names core.SplitOp reads back as the same base, dimension and layer;
// a suffix that names no layer stays part of the base.
func TestSplitOp(t *testing.T) {
	cases := []struct {
		op, base, layer string
		crit, ok        bool
	}{
		{"read@fs", "read", "fs", false, true},
		{"read@crit:disk", "read", "disk", true, true},
		{"disk_read@driver", "disk_read", "driver", false, true},
		{"read", "read", "", false, false},
		{"read@bogus", "read@bogus", "", false, false}, // not a layer name
		{"a@b@net", "a@b", "net", false, true},         // last marker wins
	}
	for _, c := range cases {
		base, dim, layer := core.SplitOp(c.op)
		crit, ok := dim == core.DimCrit, dim != core.DimNone
		if base != c.base || layer != c.layer || crit != c.crit || ok != c.ok {
			t.Errorf("SplitOp(%q) = %q %q %v %v, want %q %q %v %v",
				c.op, base, layer, crit, ok, c.base, c.layer, c.crit, c.ok)
		}
	}
	for l := trace.LayerVFS; l <= trace.LayerNet; l++ {
		for _, dim := range []core.Dim{core.DimLayer, core.DimCrit} {
			op := dim.Op("read", l.String())
			if base, d, layer := core.SplitOp(op); base != "read" || d != dim || layer != l.String() {
				t.Errorf("SplitOp(%q) = %q %d %q, want read %d %q", op, base, d, layer, dim, l)
			}
		}
	}
}

// The span hot path — root open/close, layer enter/exit, token
// capture and credit — is allocation-free once a request shape has
// been seen, the same always-on budget the recorders hold.
func TestSpanHotPathAllocationFree(t *testing.T) {
	set := core.NewSet("s")
	tr := trace.New(set)
	var allocs float64
	drive(func(p *sim.Proc) {
		// Warm: per-proc state, stack capacity, and the op's profile
		// handles materialize on the first request.
		tr.BeginRoot(p, "read")
		tr.Enter(p, trace.LayerFS)
		tr.Exit(p, trace.LayerFS)
		tr.Token(p).Credit(7, 9)
		tr.EndRoot(p)
		allocs = testing.AllocsPerRun(100, func() {
			tr.BeginRoot(p, "read")
			tr.Enter(p, trace.LayerFS)
			tr.Enter(p, trace.LayerPageCache)
			tr.Token(p).Credit(5, 11)
			tr.Exit(p, trace.LayerPageCache)
			tr.Exit(p, trace.LayerFS)
			tr.EndRoot(p)
		})
	})
	if allocs != 0 {
		t.Errorf("span hot path allocates %v objects/request, want 0", allocs)
	}
}

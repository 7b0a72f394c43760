package sim

import (
	"runtime"
	"strings"
	"testing"

	"osprof/internal/cycles"
)

// quiet returns a config without timer interrupts so arithmetic on
// elapsed times is exact.
func quiet(ncpu int) Config {
	return Config{NumCPUs: ncpu, ContextSwitch: 100, TickPeriod: 0}
}

func TestSingleProcExecElapsed(t *testing.T) {
	k := New(quiet(1))
	var start, end uint64
	k.Spawn("w", func(p *Proc) {
		start = p.Now()
		p.Exec(1000)
		end = p.Now()
	})
	k.Run()
	// The process is dispatched at t=0 and charged one context switch
	// before its body runs; Exec(1000) then takes exactly 1000 cycles.
	if start != 100 {
		t.Errorf("start = %d, want 100 (one context switch)", start)
	}
	if end-start != 1000 {
		t.Errorf("exec elapsed = %d, want 1000", end-start)
	}
	if got := k.Now(); got != 1100 {
		t.Errorf("final clock = %d, want 1100", got)
	}
}

func TestExecAccountsSysVsUserCPU(t *testing.T) {
	k := New(quiet(1))
	var st ProcStats
	k.Spawn("w", func(p *Proc) {
		p.Exec(300)
		p.ExecUser(700)
		st = p.Stats()
	})
	k.Run()
	if st.SysCPU != 300 {
		t.Errorf("SysCPU = %d, want 300", st.SysCPU)
	}
	if st.UserCPU != 700 {
		t.Errorf("UserCPU = %d, want 700", st.UserCPU)
	}
}

func TestTwoProcsShareOneCPUFIFO(t *testing.T) {
	k := New(quiet(1))
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Exec(500)
			order = append(order, name)
		})
	}
	k.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("completion order = %v, want [a b]", order)
	}
	// b waits for a's full slice: total = ctx+500 (a) + ctx+500 (b).
	if got := k.Now(); got != 1200 {
		t.Errorf("final clock = %d, want 1200", got)
	}
}

func TestTwoCPUsRunInParallel(t *testing.T) {
	k := New(quiet(2))
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(p *Proc) { p.Exec(500) })
	}
	k.Run()
	if got := k.Now(); got != 600 {
		t.Errorf("final clock = %d, want 600 (parallel slices)", got)
	}
}

func TestSleepConsumesWallTimeNotCPU(t *testing.T) {
	k := New(quiet(1))
	var st ProcStats
	k.Spawn("w", func(p *Proc) {
		p.Sleep(10_000)
		st = p.Stats()
	})
	k.Run()
	if st.SysCPU != 0 || st.UserCPU != 0 {
		t.Errorf("CPU consumed during sleep: sys=%d user=%d", st.SysCPU, st.UserCPU)
	}
	if st.WaitBlocked < 10_000 {
		t.Errorf("WaitBlocked = %d, want >= 10000", st.WaitBlocked)
	}
	if got := k.Now(); got < 10_000 {
		t.Errorf("clock = %d, want >= 10000", got)
	}
}

func TestSleepReleasesCPUToOtherProc(t *testing.T) {
	k := New(quiet(1))
	var otherDone uint64
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(1_000_000) })
	k.Spawn("worker", func(p *Proc) {
		p.Exec(100)
		otherDone = p.Now()
	})
	k.Run()
	if otherDone >= 1_000_000 {
		t.Errorf("worker finished at %d; should have run during sleep", otherDone)
	}
}

func TestTimerTickInflatesExecution(t *testing.T) {
	k := New(Config{
		NumCPUs:       1,
		ContextSwitch: 100,
		TickPeriod:    10_000,
		TickCost:      1_000,
	})
	var elapsed uint64
	k.Spawn("w", func(p *Proc) {
		start := p.Now()
		p.Exec(35_000)
		elapsed = p.Now() - start
	})
	k.Run()
	// Ticks at 10k, 20k, 30k land inside the work (which starts at 100
	// and would otherwise end at 35100); each adds 1000 cycles.
	want := uint64(35_000 + 3*1_000)
	if elapsed != want {
		t.Errorf("elapsed = %d, want %d (3 tick inflations)", elapsed, want)
	}
	if k.Stats().TimerTicks < 3 {
		t.Errorf("ticks = %d, want >= 3", k.Stats().TimerTicks)
	}
}

func TestPreemptionOnlyWithKernelPreemption(t *testing.T) {
	run := func(preemptive bool) (preemptions uint64) {
		k := New(Config{
			NumCPUs:       1,
			ContextSwitch: 100,
			TickPeriod:    10_000,
			TickCost:      100,
			Quantum:       20_000,
			Preemptive:    preemptive,
		})
		for i := 0; i < 2; i++ {
			k.Spawn("w", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Exec(10_000) // kernel-mode CPU burn
				}
			})
		}
		k.Run()
		return k.Stats().Preemptions
	}
	if got := run(false); got != 0 {
		t.Errorf("non-preemptive kernel preempted kernel-mode exec %d times", got)
	}
	if got := run(true); got == 0 {
		t.Errorf("preemptive kernel never preempted despite quantum expiry")
	}
}

func TestUserModePreemptedOnAnyKernel(t *testing.T) {
	k := New(Config{
		NumCPUs:       1,
		ContextSwitch: 100,
		TickPeriod:    10_000,
		TickCost:      100,
		Quantum:       20_000,
		Preemptive:    false,
	})
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.ExecUser(10_000)
			}
		})
	}
	k.Run()
	if k.Stats().Preemptions == 0 {
		t.Error("user-mode execution was never preempted")
	}
}

func TestPreemptedFlagAndLatencyInflation(t *testing.T) {
	k := New(Config{
		NumCPUs:       1,
		ContextSwitch: 100,
		TickPeriod:    5_000,
		TickCost:      10,
		Quantum:       5_000,
		Preemptive:    true,
	})
	var sawPreempt bool
	var maxLatency uint64
	body := func(p *Proc) {
		for j := 0; j < 100; j++ {
			start := p.Now()
			p.Exec(1_000)
			lat := p.Now() - start
			if p.Preempted() {
				sawPreempt = true
				if lat > maxLatency {
					maxLatency = lat
				}
			}
		}
	}
	k.Spawn("a", body)
	k.Spawn("b", body)
	k.Run()
	if !sawPreempt {
		t.Fatal("no request observed preemption")
	}
	// A preempted request waits roughly a full quantum of the other
	// process; far more than its own 1000-cycle cost.
	if maxLatency < 4_000 {
		t.Errorf("preempted request latency = %d, want >= 4000", maxLatency)
	}
}

func TestReadTSCSkew(t *testing.T) {
	k := New(Config{NumCPUs: 2, ContextSwitch: 10, TSCSkew: []int64{0, 35}})
	var onCPU1 uint64
	var global uint64
	k.Spawn("w", func(p *Proc) {
		p.Exec(100)
		// Force this proc onto CPU by construction: with one proc and
		// FIFO dispatch it lands on CPU 0; spawn order controls this.
		global = p.Now()
		_ = global
	})
	k.Spawn("w2", func(p *Proc) {
		p.Exec(100)
		onCPU1 = p.ReadTSC() - p.Now()
	})
	k.Run()
	if onCPU1 != 35 {
		t.Errorf("TSC skew on CPU1 = %d, want 35", onCPU1)
	}
}

func TestWaitFor(t *testing.T) {
	k := New(quiet(2))
	var childEnd, parentSaw uint64
	child := k.Spawn("child", func(p *Proc) {
		p.Exec(5_000)
		childEnd = p.Now()
	})
	k.Spawn("parent", func(p *Proc) {
		p.Exec(10)
		p.WaitFor(child)
		parentSaw = p.Now()
	})
	k.Run()
	if parentSaw < childEnd {
		t.Errorf("parent resumed at %d before child finished at %d", parentSaw, childEnd)
	}
}

func TestDaemonDoesNotBlockRunExit(t *testing.T) {
	k := New(quiet(1))
	ticks := 0
	k.SpawnDaemon("flusher", func(p *Proc) {
		for {
			p.Sleep(1_000)
			ticks++
		}
	})
	k.Spawn("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Exec(500)
			p.Sleep(1_500) // daemon gets the CPU while we sleep
		}
	})
	k.Run()
	if ticks == 0 {
		t.Error("daemon never ran")
	}
	if got := k.Now(); got > 10_000 {
		t.Errorf("Run kept going for the daemon: clock=%d", got)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(r.(string), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	k := New(quiet(1))
	k.Spawn("stuck", func(p *Proc) { p.Block("never-woken") })
	k.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, Stats) {
		k := New(Config{
			NumCPUs:       2,
			ContextSwitch: 100,
			TickPeriod:    7_000,
			TickCost:      150,
			Quantum:       30_000,
			Preemptive:    true,
			Seed:          42,
		})
		sem := NewSemaphore(k, "s")
		for i := 0; i < 4; i++ {
			k.Spawn("w", func(p *Proc) {
				for j := 0; j < 50; j++ {
					n := uint64(k.Rand().Intn(2_000)) + 100
					p.Exec(n)
					sem.Down(p)
					p.Exec(500)
					sem.Up(p)
				}
			})
		}
		k.Run()
		return k.Now(), k.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("non-deterministic: (%d,%+v) vs (%d,%+v)", t1, s1, t2, s2)
	}
}

func TestYieldCPU(t *testing.T) {
	k := New(quiet(1))
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Exec(100)
		p.YieldCPU()
		p.Exec(100)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) {
		p.Exec(100)
		order = append(order, "b")
	})
	k.Run()
	if len(order) != 2 || order[0] != "b" {
		t.Errorf("order = %v, want b before a (a yielded)", order)
	}
}

func TestDefaultConfig(t *testing.T) {
	k := New(Config{})
	cfg := k.Config()
	if cfg.NumCPUs != 1 {
		t.Errorf("NumCPUs = %d, want 1", cfg.NumCPUs)
	}
	if cfg.Quantum != cycles.SchedulingQuantum {
		t.Errorf("Quantum = %d, want %d", cfg.Quantum, uint64(cycles.SchedulingQuantum))
	}
	if cfg.ContextSwitch != cycles.ContextSwitch {
		t.Errorf("ContextSwitch = %d, want %d", cfg.ContextSwitch, uint64(cycles.ContextSwitch))
	}
}

func TestManyProcsStress(t *testing.T) {
	k := New(Config{
		NumCPUs:       4,
		ContextSwitch: 100,
		TickPeriod:    50_000,
		TickCost:      500,
		Quantum:       200_000,
		Preemptive:    true,
		Seed:          7,
	})
	total := 0
	for i := 0; i < 32; i++ {
		k.Spawn("w", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Exec(uint64(k.Rand().Intn(5_000)) + 1)
			}
			total++
		})
	}
	k.Run()
	if total != 32 {
		t.Errorf("finished procs = %d, want 32", total)
	}
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(quiet(1))
	k.SpawnDaemon("flusher", func(p *Proc) {
		for {
			p.Sleep(1_000)
		}
	})
	k.Spawn("bad", func(p *Proc) {
		p.Exec(100)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("Run panicked with %v, want the process's \"boom\"", r)
			}
		}()
		k.Run()
	}()
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("goroutines after the panic = %d, want %d (parked daemon not reclaimed)", n, base)
	}
}

func TestRunReclaimsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(quiet(1))
	unwound := 0
	for _, name := range []string{"sleeper", "blocked"} {
		k.SpawnDaemon(name, func(p *Proc) {
			defer func() { unwound++ }()
			for {
				if name == "sleeper" {
					p.Sleep(1_000)
				} else {
					p.Block("never-woken")
				}
			}
		})
	}
	k.Spawn("w", func(p *Proc) { p.Exec(10_000) })
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("goroutines after Spawn = %d, want %d (one coroutine per process)", n, base+3)
	}
	k.Run()
	if unwound != 2 {
		t.Errorf("unwound daemon bodies = %d, want 2", unwound)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("goroutines after Run = %d, want %d", n, base)
	}
}

func TestStoppedKernelPanics(t *testing.T) {
	k := New(quiet(1))
	k.Spawn("w", func(p *Proc) { p.Exec(100) })
	k.Run()
	for name, f := range map[string]func(){
		"Run":   k.Run,
		"Spawn": func() { k.Spawn("late", func(p *Proc) {}) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "stopped kernel") {
					t.Errorf("%s after Run: panic %q, want a stopped-kernel panic", name, r)
				}
			}()
			f()
		}()
	}
}

func TestTickedDeadlockPanics(t *testing.T) {
	k := New(Config{NumCPUs: 1, TickPeriod: 10_000})
	k.Spawn("stuck", func(p *Proc) {
		p.Exec(50)
		p.Block("forever")
	})
	defer func() {
		const want = `sim: deadlock
t=10000 live=1 runq=0 events=0
  proc 0 "stuck" state=blocked daemon=false block="forever"
`
		if got, _ := recover().(string); got != want {
			t.Errorf("deadlock dump:\n%s\nwant:\n%s", got, want)
		}
	}()
	k.Run()
}

// Idle ticks are counted up to the next pending event, not fired one
// by one: a 2^50-cycle sleep would otherwise take 2^38 tick events. The
// machine has one CPU, ticks at every multiple of 4096, a 100-cycle
// context switch and a 10-cycle handler; the stats for the cases short
// enough to fire tick by tick were taken from the kernel that did.
func TestIdleTicksAreCountedNotSimulated(t *testing.T) {
	const period = 4096
	for _, tc := range []struct {
		name        string
		sleep, exec uint64
		end         uint64
		want        Stats
	}{
		// The sleep starts after the first context switch (t=100) and
		// the second one ends the world at sleep+200; every tick up to
		// and including t=sleep fired while nothing ran.
		{"sleep 2^20", 1 << 20, 0, 1<<20 + 200,
			Stats{ContextSwitches: 2, TimerTicks: 1 << 8}},
		{"sleep 2^50", 1 << 50, 0, 1<<50 + 200,
			Stats{ContextSwitches: 2, TimerTicks: 1 << 38}},
		// The wake lands on the tick at 10P, ahead of it: the tick then
		// interrupts the fresh context-switch slice and is counted.
		{"wake on tick", 10*period - 100, 0, 10*period + 110,
			Stats{ContextSwitches: 2, TimerTicks: 10}},
		// The exec slice spans the tick at 11P, which moves its end by
		// the handler cost exactly onto 12P. The slice was re-keyed
		// before the tick at 12P was scheduled, so it completes first
		// and ends the world: that tick never fires.
		{"completion ends world on tick", 10*period + 900, 2*period - 1110, 12 * period,
			Stats{ContextSwitches: 2, TimerTicks: 11}},
	} {
		k := New(Config{NumCPUs: 1, ContextSwitch: 100, TickPeriod: period, TickCost: 10})
		k.Spawn("w", func(p *Proc) {
			p.Sleep(tc.sleep)
			if tc.exec > 0 {
				p.Exec(tc.exec)
			}
		})
		k.Run()
		if got := k.Stats(); got != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, got, tc.want)
		}
		if got := k.Now(); got != tc.end {
			t.Errorf("%s: world ended at %d, want %d", tc.name, got, tc.end)
		}
	}
}

// Package sim implements a deterministic discrete-event simulation of an
// operating system kernel: CPUs, a run queue with quantum-based
// scheduling, optional in-kernel preemption, timer interrupts, context
// switches, spinlocks and semaphores.
//
// The simulator exists so that the OSprof profiling method (the paper's
// contribution, implemented in internal/core and internal/analysis) can
// be exercised against workloads whose latency composition
//
//	latency = t_cpu + t_wait                       (paper Eq. 1)
//	t_cpu   = sum t_exec + sum t_spinlock
//	t_wait  = sum t_io + sum t_sem + sum t_int + sum t_preempt
//
// is known by construction, letting tests verify that profiles attribute
// latency to the right internal activity.
//
// Simulated processes are coroutines on the goroutine calling Kernel.Run:
// the kernel resumes exactly one process at a time and runs it until it
// yields back before processing the next event, so the simulation is
// strictly sequential and fully deterministic for a given seed.
package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"osprof/internal/core"
	"osprof/internal/cycles"
)

// Config describes a simulated machine and kernel build.
type Config struct {
	// NumCPUs is the number of CPUs (default 1).
	NumCPUs int

	// Quantum is the scheduling time slice in cycles
	// (default cycles.SchedulingQuantum = 2^26).
	Quantum uint64

	// Preemptive selects a kernel built with in-kernel preemption
	// (CONFIG_PREEMPT). Non-preemptive kernels (Linux 2.4, FreeBSD 5.2)
	// never preempt a process while it executes in kernel mode; both
	// kinds preempt user-mode execution when the quantum expires.
	Preemptive bool

	// ContextSwitch is the context-switch cost in cycles
	// (default cycles.ContextSwitch).
	ContextSwitch uint64

	// TickPeriod is the timer-interrupt period in cycles; 0 disables
	// the timer (default cycles.TimerTick).
	TickPeriod uint64

	// TickCost is the CPU time stolen by one timer-interrupt handler
	// invocation from whatever process is running (default 10,000).
	TickCost uint64

	// WakePreempt enables wakeup preemption: a process made runnable
	// by Wake immediately preempts the longest-running preemptible
	// process when no CPU is idle, as interactive schedulers do for
	// priority-boosted sleepers. Kernel-mode execution is still only
	// preemptible when Preemptive is set.
	WakePreempt bool

	// TSCSkew gives per-CPU offsets added to the cycle counter read by
	// ReadTSC, modeling unsynchronized TSCs on SMP systems (§3.4).
	TSCSkew []int64

	// Seed seeds the kernel's deterministic random source.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.NumCPUs <= 0 {
		c.NumCPUs = 1
	}
	if c.Quantum == 0 {
		c.Quantum = cycles.SchedulingQuantum
	}
	if c.ContextSwitch == 0 {
		c.ContextSwitch = cycles.ContextSwitch
	}
	if c.TickCost == 0 {
		c.TickCost = 10_000
	}
}

// Stats aggregates kernel-wide scheduling statistics.
type Stats struct {
	ContextSwitches uint64
	Preemptions     uint64
	TimerTicks      uint64
}

// Kernel is the simulated machine: clock, event queue, CPUs, run queue.
type Kernel struct {
	cfg    Config
	now    uint64
	seq    uint64
	events eventHeap
	cpus   []*cpu
	runq   procRing
	procs  []*Proc
	live   int // non-daemon processes not yet finished
	rng    *rand.Rand
	stats  Stats

	// freeEvents is the event pool; see event.go.
	freeEvents []*event

	// tickFn is the timer-interrupt callback, bound once so the
	// periodic reschedule does not allocate a method value per tick.
	tickFn func()

	stopped bool

	// Load-occupancy accounting (see load.go). loadCur mirrors Load()
	// incrementally so the tracking hot path never scans the CPUs.
	loadTrack bool
	loadCur   int
	loadLast  uint64
	loadOcc   [core.LoadBands]uint64
}

// cpu models one processor. A CPU is occupied while a process runs or
// spins on it; context-switch overhead is charged when a process is
// placed on a CPU.
type cpu struct {
	idx  int
	p    *Proc // currently running (or spinning) process
	skew int64
}

// New creates a simulated machine from cfg.
func New(cfg Config) *Kernel {
	cfg.applyDefaults()
	k := &Kernel{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		c := &cpu{idx: i}
		if i < len(cfg.TSCSkew) {
			c.skew = cfg.TSCSkew[i]
		}
		k.cpus = append(k.cpus, c)
	}
	k.tickFn = k.timerTick
	if cfg.TickPeriod > 0 {
		k.schedule(cfg.TickPeriod, k.tickFn)
	}
	return k
}

// Now returns the global simulation clock in cycles. Profiling code
// should use Proc.ReadTSC instead, which includes per-CPU skew.
func (k *Kernel) Now() uint64 { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Stats returns kernel-wide scheduling statistics.
func (k *Kernel) Stats() Stats { return k.stats }

// NumCPUs reports the number of simulated processors.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Config returns the kernel configuration (after defaults were applied).
func (k *Kernel) Config() Config { return k.cfg }

// Schedule registers fn to run at now+delay cycles. It is used by
// substrates (disk, network, daemons) to model asynchronous completion.
func (k *Kernel) Schedule(delay uint64, fn func()) { k.schedule(k.now+delay, fn) }

// Spawn creates a process executing fn and makes it runnable now.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon creates a background process (e.g., a buffer-flushing
// daemon). Daemons do not keep the simulation alive: Run returns when
// all non-daemon processes have finished.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *Kernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	if k.stopped {
		panic("sim: Spawn on a stopped kernel")
	}
	p := &Proc{
		k:      k,
		id:     len(k.procs),
		name:   name,
		daemon: daemon,
		state:  stateNew,
	}
	// Pre-bound callbacks: the slice-completion, wakeup and resume
	// closures are created once per process, so scheduling them on the
	// hot path (startSlice, Sleep, SpinLock.Unlock) never allocates.
	p.sliceDoneFn = func() { k.sliceDone(p) }
	p.wakeFn = func() { k.Wake(p) }
	p.resumeFn = func() { k.resumeProc(p) }
	k.procs = append(k.procs, p)
	if !daemon {
		k.live++
	}
	p.start(fn)
	k.makeRunnable(p)
	return p
}

// Run processes events until every non-daemon process has finished.
// It panics with a state dump if the simulation deadlocks (live
// processes remain but nothing is runnable and no event is pending), or
// with a process body's own panic. Either way the kernel is stopped.
func (k *Kernel) Run() {
	if k.stopped {
		panic("sim: Run on a stopped kernel")
	}
	defer k.stop()
	k.dispatch()
	for k.live > 0 {
		ev := k.popEvent()
		if ev == nil {
			panic("sim: deadlock\n" + k.dump())
		}
		if ev.when > k.now {
			k.now = ev.when
		}
		ev.fn()
		// Safe to recycle: by convention the only holder of a pending
		// event pointer (Proc.sliceEvent) clears or reassigns it inside
		// the callback, before it returns here.
		k.freeEvent(ev)
		k.dispatch()
	}
}

// stop unwinds every parked process (daemons, and all after a panic) so
// that no coroutine keeps the world reachable; Run and Spawn then panic.
// An unwound body's deferred calls run, and must not use primitives.
func (k *Kernel) stop() {
	k.stopped = true
	for _, p := range k.procs {
		p.stop() // a no-op once the body has returned
	}
}

// dump renders process states for deadlock diagnostics.
func (k *Kernel) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d live=%d runq=%d events=%d\n",
		k.now, k.live, k.runq.Len(), k.events.Len())
	for _, p := range k.procs {
		fmt.Fprintf(&b, "  proc %d %q state=%v daemon=%v block=%q\n",
			p.id, p.name, p.state, p.daemon, p.blockKind+p.blockName)
	}
	return b.String()
}

// makeRunnable places p at the tail of the run queue.
func (k *Kernel) makeRunnable(p *Proc) {
	if p.state == stateRunnable || p.state == stateRunning {
		return
	}
	p.state = stateRunnable
	p.runnableAt = k.now
	k.noteLoad(+1)
	k.runq.PushBack(p)
}

// dispatch assigns runnable processes to idle CPUs in FIFO order.
func (k *Kernel) dispatch() {
	for k.runq.Len() > 0 {
		c := k.idleCPU()
		if c == nil {
			return
		}
		k.assign(c, k.runq.PopFront())
	}
}

func (k *Kernel) idleCPU() *cpu {
	for _, c := range k.cpus {
		if c.p == nil {
			return c
		}
	}
	return nil
}

// assign puts p on CPU c, charging context-switch overhead, and starts
// (or restarts) p's pending execution slice.
func (k *Kernel) assign(c *cpu, p *Proc) {
	c.p = p
	p.cpu = c
	p.lastCPU = c.idx
	p.state = stateRunning
	p.cpuAcquired = k.now
	p.waitRunnable += k.now - p.runnableAt
	p.contextSwitches++
	k.stats.ContextSwitches++
	p.overhead += k.cfg.ContextSwitch
	k.startSlice(p)
}

// startSlice schedules the completion of p's pending work (context
// switch overhead plus remaining exec cycles) on its current CPU. The
// event can be displaced by timer ticks and preemption. The callback is
// the process's pre-bound sliceDoneFn and the event comes from the
// kernel pool, so steady-state slices allocate nothing.
func (k *Kernel) startSlice(p *Proc) {
	p.sliceStart = k.now
	work := p.overhead + p.execRemaining
	p.sliceEvent = k.schedule(k.now+work, p.sliceDoneFn)
}

// consumeSlice accounts for the work p performed between sliceStart and
// now, draining overhead first, then exec work.
func (k *Kernel) consumeSlice(p *Proc) {
	done := k.now - p.sliceStart
	p.sliceStart = k.now
	if done >= p.overhead {
		done -= p.overhead
		p.overhead = 0
	} else {
		p.overhead -= done
		done = 0
	}
	if done >= p.execRemaining {
		p.execRemaining = 0
	} else {
		p.execRemaining -= done
	}
	if p.execUser {
		p.userCPU += done
	} else {
		p.sysCPU += done
	}
}

// sliceDone fires when p's scheduled work completes without interruption.
func (k *Kernel) sliceDone(p *Proc) {
	k.consumeSlice(p)
	p.sliceEvent = nil
	// The process keeps its CPU and continues executing Go code (which
	// takes zero simulated time until the next primitive call).
	k.resumeProc(p)
}

// timerTick models the periodic timer interrupt: each CPU's interrupt
// handler steals TickCost cycles from whatever process is running, and
// the scheduler preempts processes that exhausted their quantum.
//
// The interrupt costs something only when it interrupts a slice. A tick
// that finds none (tickless idle, the simulator's NO_HZ) changed
// nothing but the tick counter, and nothing can change before the next
// pending event fires, since process code runs only inside event
// callbacks. So the ticks up to that event are counted, not fired: the
// next tick is armed at the first tick instant at or after the event.
// Every pending event was scheduled before the skipped chain would have
// been, so the tick's fresh seq sorts after them at equal times, just
// where the chain would have put it.
func (k *Kernel) timerTick() {
	k.stats.TimerTicks++
	busy := false
	for _, c := range k.cpus {
		p := c.p
		if p == nil || p.state != stateRunning {
			continue
		}
		if p.sliceEvent == nil {
			// A spinner that SpinLock.Unlock just handed the lock to is
			// Running with no slice until its resume event, scheduled at
			// this same instant, fires. It has no work in flight for the
			// handler to stretch, so the tick charges it nothing and is
			// not busy on its account; the pending resume keeps the
			// next tick one period out.
			continue
		}
		busy = true
		k.consumeSlice(p)
		p.overhead += k.cfg.TickCost
		p.interruptTime += k.cfg.TickCost
		if k.shouldPreempt(p) {
			k.cancelEvent(p.sliceEvent)
			k.preempt(p)
			continue
		}
		// The slice end only moves later, by TickCost.
		k.reschedule(p.sliceEvent, k.now+p.overhead+p.execRemaining)
	}
	next := k.now + k.cfg.TickPeriod
	if !busy {
		w, ok := k.peekTime()
		if !ok {
			// Nothing runs and nothing is pending: no event can ever
			// fire again. Arm no tick, so Run reports the deadlock.
			return
		}
		if w > next {
			m := (w - next + k.cfg.TickPeriod - 1) / k.cfg.TickPeriod
			k.stats.TimerTicks += m
			next += m * k.cfg.TickPeriod
		}
	}
	k.schedule(next, k.tickFn)
}

// shouldPreempt reports whether the quantum of p expired and the kernel
// is allowed to preempt it here. Kernel-mode execution is preemptible
// only on kernels built with in-kernel preemption (§3.3).
func (k *Kernel) shouldPreempt(p *Proc) bool {
	if k.runq.Len() == 0 {
		return false
	}
	if k.now-p.cpuAcquired < k.cfg.Quantum {
		return false
	}
	if !p.execUser && !k.cfg.Preemptive {
		return false
	}
	return true
}

// preempt forces p off its CPU mid-execution; its remaining work resumes
// when the scheduler next assigns it a CPU. The delay adds t_preempt to
// the latency of whatever operation p was executing.
func (k *Kernel) preempt(p *Proc) {
	k.stats.Preemptions++
	p.preemptions++
	c := p.cpu
	c.p = nil
	p.cpu = nil
	p.state = stateRunnable
	p.runnableAt = k.now
	p.wasPreempted = true
	k.runq.PushBack(p)
	p.sliceEvent = nil
}

// releaseCPU detaches p from its CPU (voluntary block or exit).
func (k *Kernel) releaseCPU(p *Proc) {
	if p.cpu != nil {
		k.noteLoad(-1)
		p.cpu.p = nil
		p.cpu = nil
	}
}

// resumeProc switches to p's coroutine and runs it until it yields or
// finishes. This is the only place simulated code runs; the strict
// handoff keeps the simulation single-threaded and deterministic.
func (k *Kernel) resumeProc(p *Proc) {
	if _, parked := p.next(); parked {
		return
	}
	k.releaseCPU(p)
	if !p.daemon {
		k.live--
	}
	for _, w := range p.waiters {
		k.makeRunnable(w)
	}
	p.waiters = nil
}

// Wake makes a blocked process runnable. It is the completion half of
// Proc.block, used by substrates delivering I/O or message completions.
func (k *Kernel) Wake(p *Proc) {
	if p.state != stateBlocked {
		return
	}
	p.waitBlocked += k.now - p.blockedAt
	k.makeRunnable(p)
	if k.cfg.WakePreempt {
		// Sleeper boost: the woken process goes to the front of the
		// run queue and, if no CPU is idle, evicts a running process.
		// Without the boost a woken lock holder can sit runnable
		// behind ordinary queued processes — a lock convoy.
		k.runq.MoveToFront(p)
		k.wakePreempt()
	}
}

// wakePreempt evicts the longest-running preemptible process when a
// wakeup finds every CPU busy, so sleepers resume promptly (a context
// switch rather than a quantum later).
func (k *Kernel) wakePreempt() {
	if k.idleCPU() != nil {
		return
	}
	var victim *Proc
	for _, c := range k.cpus {
		q := c.p
		if q == nil || q.state != stateRunning || q.sliceEvent == nil {
			continue
		}
		if !q.execUser && !k.cfg.Preemptive {
			continue
		}
		if victim == nil || q.cpuAcquired < victim.cpuAcquired {
			victim = q
		}
	}
	if victim == nil {
		return
	}
	k.consumeSlice(victim)
	k.cancelEvent(victim.sliceEvent)
	k.preempt(victim)
}

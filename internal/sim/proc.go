package sim

import "fmt"

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateSpinning
	stateFinished
)

var stateNames = [...]string{"new", "runnable", "running", "blocked", "spinning", "finished"}

func (s procState) String() string {
	if uint(s) < uint(len(stateNames)) {
		return stateNames[s]
	}
	return fmt.Sprintf("procState(%d)", int(s))
}

// Proc is a simulated process. Its body runs as a coroutine on the
// kernel's goroutine, only while the kernel has resumed it; every
// simulation primitive (Exec, Sleep, semaphores, I/O) yields back to
// the kernel.
//
// Code between primitive calls takes zero simulated time: only Exec
// advances the process's CPU clock. This mirrors how the paper thinks
// about latency: operations are sums of exec, lock, interrupt and I/O
// components (Eq. 2), each of which is explicit here.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	daemon bool

	state   procState
	cpu     *cpu
	lastCPU int

	next  func() (struct{}, bool) // coroutine handles; see coro.go
	yield func(struct{}) bool
	stop  func()

	// The blocking reason, shown joined in deadlock dumps. Lock paths
	// store prefix and object name apart so they never concatenate.
	blockKind, blockName string

	// Pre-bound callbacks, created once at spawn so that the hot
	// scheduling paths never allocate a closure (see Kernel.spawn).
	sliceDoneFn func()
	wakeFn      func()
	resumeFn    func()

	// exec state
	execRemaining uint64 // exec cycles still owed
	execUser      bool   // current exec is user mode
	overhead      uint64 // pending non-exec work (ctx switch, tick handler)
	sliceStart    uint64
	sliceEvent    *event
	cpuAcquired   uint64 // when this CPU assignment began (quantum base)
	runnableAt    uint64
	blockedAt     uint64 // when it blocked, or began spinning
	wasPreempted  bool

	// per-process accounting
	userCPU         uint64
	sysCPU          uint64
	spinTime        uint64
	interruptTime   uint64
	waitBlocked     uint64
	waitRunnable    uint64
	preemptions     uint64
	contextSwitches uint64

	waiters []*Proc
}

// ProcStats is a snapshot of per-process accounting.
type ProcStats struct {
	UserCPU         uint64
	SysCPU          uint64
	SpinTime        uint64
	InterruptTime   uint64
	WaitBlocked     uint64
	WaitRunnable    uint64
	Preemptions     uint64
	ContextSwitches uint64
}

// ID returns the process identifier (dense, starting at 0).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Daemon reports whether the process was spawned as a kernel daemon
// (SpawnDaemon). Layer tracing skips daemons: a flusher's own writeback
// must not open request spans — its cost surfaces instead as lock and
// I/O wait inside the victim requests it delays.
func (p *Proc) Daemon() bool { return p.daemon }

// Kernel returns the machine this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Stats returns a snapshot of this process's accounting counters.
func (p *Proc) Stats() ProcStats {
	return ProcStats{
		UserCPU:         p.userCPU,
		SysCPU:          p.sysCPU,
		SpinTime:        p.spinTime,
		InterruptTime:   p.interruptTime,
		WaitBlocked:     p.waitBlocked,
		WaitRunnable:    p.waitRunnable,
		Preemptions:     p.preemptions,
		ContextSwitches: p.contextSwitches,
	}
}

// Preempted reports whether the process has been forcibly preempted
// since the flag was last cleared, and clears it. Experiments use it to
// classify requests, mirroring the paper's Figure 3 analysis.
func (p *Proc) Preempted() bool {
	was := p.wasPreempted
	p.wasPreempted = false
	return was
}

// reclaimed is the panic that unwinds a parked body when its kernel
// stops; top recovers it and nothing else.
type reclaimed struct{}

// top is the coroutine body: it runs fn and marks the process finished.
// A panic from fn propagates out of the kernel's resumeProc.
func (p *Proc) top(fn func(p *Proc), yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil && r != (reclaimed{}) {
			panic(r)
		}
	}()
	fn(p)
	p.state = stateFinished
}

// yieldToKernel suspends the process until the kernel resumes it.
func (p *Proc) yieldToKernel() {
	if !p.yield(struct{}{}) {
		panic(reclaimed{})
	}
}

// ReadTSC returns the per-CPU cycle counter, including the configured
// skew of the CPU the process last ran on. It models the rdtsc
// instruction; the ~20-cycle cost of executing it is charged separately
// by profiling layers via Exec, so that the overhead shows up in
// profiles exactly as in the paper (§5.2).
//
// A negative skew larger than the early-run clock would wrap the
// unsigned counter to ~2^64; real counters start at zero, so the read
// clamps there instead.
func (p *Proc) ReadTSC() uint64 {
	c := p.k.cpus[p.lastCPU]
	t := int64(p.k.now) + c.skew
	if t < 0 {
		return 0
	}
	return uint64(t)
}

// TSCDelta returns end-start, clamped at zero. Per-CPU counters are
// not synchronized (§3.4): a process that migrates CPUs between the
// two reads can observe end < start, and a raw unsigned subtraction
// would turn that into a ~2^64 top-bucket garbage sample. Every
// profiler pairing two ReadTSC values must subtract through this
// helper.
func TSCDelta(end, start uint64) uint64 {
	if end < start {
		return 0
	}
	return end - start
}

// Now returns the unskewed global clock. Prefer ReadTSC in profilers.
func (p *Proc) Now() uint64 { return p.k.now }

// Exec consumes n cycles of kernel-mode CPU time. The call returns when
// the work completes; the wall-clock time that elapses may exceed n due
// to run-queue waits, context switches, timer interrupts and (on
// preemptive kernels) forcible preemption.
func (p *Proc) Exec(n uint64) { p.exec(n, false) }

// ExecUser consumes n cycles of user-mode CPU time. User-mode execution
// is preemptible on every kernel build.
func (p *Proc) ExecUser(n uint64) { p.exec(n, true) }

func (p *Proc) exec(n uint64, user bool) {
	if p.cpu == nil {
		// Process code runs only when resumed on a CPU.
		panic("sim: " + p.name + " executes without a CPU")
	}
	k := p.k
	if p.sliceEvent == nil && (k.runq.Len() == 0 || k.idleCPU() == nil) {
		// Inline-completion fast path: if this slice would finish
		// strictly before the earliest pending event, nothing — no
		// timer tick, no wakeup, no completion — can run during it, so
		// no preemption or interrupt is possible and no other process
		// can touch the run queue. Advance the clock and account the
		// work right here, skipping both the event-heap push and the
		// coroutine switch through the kernel loop.
		// (Strictly before: at equal times the pending event has the
		// smaller sequence number and would fire first.)
		//
		// The run-queue guard keeps the skipped kernel-loop pass
		// equivalent to a no-op: if this process's own actions (e.g. an
		// Up that woke a sleeper whose wakeup preemption freed a CPU)
		// left a runnable process and an idle CPU behind, the slow path
		// would dispatch it on the next yield, so the slice must take
		// that path.
		finish := k.now + p.overhead + n
		if when, ok := k.peekTime(); !ok || finish < when {
			k.now = finish
			p.sliceStart = finish
			p.overhead = 0
			p.execRemaining = 0
			p.execUser = user
			if user {
				p.userCPU += n
			} else {
				p.sysCPU += n
			}
			return
		}
	}
	p.execRemaining = n
	p.execUser = user
	p.k.cancelEvent(p.sliceEvent)
	p.k.startSlice(p)
	p.yieldToKernel()
}

// Sleep blocks the process for n cycles of wall time without consuming
// CPU (e.g., a daemon's periodic timer).
func (p *Proc) Sleep(n uint64) {
	p.k.schedule(p.k.now+n, p.wakeFn)
	p.block("sleep", "")
}

// Block parks the process until another component calls Kernel.Wake.
// reason is reported in deadlock dumps.
func (p *Proc) Block(reason string) { p.block(reason, "") }

// block releases the CPU and parks the process until a Wake. Deadlock
// dumps report it as blocked on kind+name.
func (p *Proc) block(kind, name string) {
	k := p.k
	k.cancelEvent(p.sliceEvent)
	p.sliceEvent = nil
	k.releaseCPU(p)
	p.state = stateBlocked
	p.blockedAt = k.now
	p.blockKind, p.blockName = kind, name
	p.yieldToKernel()
}

// YieldCPU voluntarily gives up the CPU, going to the back of the run
// queue (sched_yield).
func (p *Proc) YieldCPU() {
	k := p.k
	k.cancelEvent(p.sliceEvent)
	p.sliceEvent = nil
	k.releaseCPU(p)
	p.state = stateNew // force requeue in makeRunnable
	k.makeRunnable(p)
	k.dispatchLater()
	p.yieldToKernel()
}

// WaitFor blocks until other has finished.
func (p *Proc) WaitFor(other *Proc) {
	if other.state == stateFinished {
		return
	}
	other.waiters = append(other.waiters, p)
	p.block("waitfor:", other.name)
}

// noop is the shared empty callback for dispatchLater; the kernel loop
// runs a dispatch pass after every event, so the event needs no body.
func noop() {}

// dispatchLater schedules an immediate dispatch pass. Used by
// primitives that change the run queue from process context: the
// dispatch must happen from the kernel loop, after the process yields.
func (k *Kernel) dispatchLater() {
	k.schedule(k.now, noop)
}

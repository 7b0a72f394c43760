package sim

// This file implements the kernel synchronization primitives whose
// contention the paper's profiles expose: semaphores (sleeping locks,
// contributing t_sem to wait time) and spinlocks (busy-wait locks,
// contributing t_spinlock to CPU time). Both keep contention statistics
// so experiments can verify that profile peaks correspond to real
// contention events.

// defaultSemOpCost models the CPU cost of one semaphore operation.
// The paper notes (§6.1) that the semaphore function "is called twice
// and its size is comparable to llseek", i.e., on the order of 100
// cycles per call.
const defaultSemOpCost = 100

// defaultSpinOpCost models an uncontended spinlock acquire/release,
// including the bus-locking memory access (§6.1).
const defaultSpinOpCost = 30

// SemStats reports semaphore usage counters.
type SemStats struct {
	Acquisitions uint64
	Contentions  uint64
	TotalWait    uint64 // cycles spent blocked across all waiters
}

// Semaphore is a sleeping mutual-exclusion lock: contended acquirers
// release their CPU and block, so contention appears as wait time in
// latency profiles (like Linux's i_sem in §6.1).
type Semaphore struct {
	k       *Kernel
	name    string
	holder  *Proc
	waiters []*Proc
	stats   SemStats

	// OpCost is the kernel-mode CPU cost charged for each Down or Up
	// call regardless of contention.
	OpCost uint64
}

// NewSemaphore creates a named semaphore on kernel k.
func NewSemaphore(k *Kernel, name string) *Semaphore {
	return &Semaphore{k: k, name: name, OpCost: defaultSemOpCost}
}

// Stats returns usage counters.
func (s *Semaphore) Stats() SemStats { return s.stats }

// Holder returns the current owner, or nil.
func (s *Semaphore) Holder() *Proc { return s.holder }

// Down acquires the semaphore, blocking if it is held.
func (s *Semaphore) Down(p *Proc) {
	if s.OpCost > 0 {
		p.Exec(s.OpCost)
	}
	s.stats.Acquisitions++
	if s.holder == nil {
		s.holder = p
		return
	}
	s.stats.Contentions++
	start := s.k.now
	s.waiters = append(s.waiters, p)
	p.block("sem:", s.name)
	s.stats.TotalWait += s.k.now - start
	// Ownership was transferred to us by Up before the wake.
}

// TryDown acquires the semaphore without blocking; it reports whether
// the acquisition succeeded.
func (s *Semaphore) TryDown(p *Proc) bool {
	if s.OpCost > 0 {
		p.Exec(s.OpCost)
	}
	if s.holder != nil {
		return false
	}
	s.stats.Acquisitions++
	s.holder = p
	return true
}

// Up releases the semaphore, handing it to the first waiter if any.
func (s *Semaphore) Up(p *Proc) {
	if s.OpCost > 0 {
		p.Exec(s.OpCost)
	}
	if len(s.waiters) > 0 {
		next := s.waiters[0]
		copy(s.waiters, s.waiters[1:])
		s.waiters = s.waiters[:len(s.waiters)-1]
		s.holder = next
		s.k.Wake(next)
		return
	}
	s.holder = nil
}

// SpinStats reports spinlock usage counters.
type SpinStats struct {
	Acquisitions uint64
	Contentions  uint64
	TotalSpin    uint64 // CPU cycles burned spinning across all waiters
}

// SpinLock is a busy-wait lock: contended acquirers keep their CPU
// spinning, so contention appears as CPU time (t_spinlock in Eq. 2).
// Critical sections must not block; spinners are never preempted.
type SpinLock struct {
	k        *Kernel
	name     string
	held     bool
	owner    *Proc
	spinners []*Proc
	stats    SpinStats

	// OpCost is the CPU cost of an uncontended lock or unlock.
	OpCost uint64
}

// NewSpinLock creates a named spinlock on kernel k.
func NewSpinLock(k *Kernel, name string) *SpinLock {
	return &SpinLock{k: k, name: name, OpCost: defaultSpinOpCost}
}

// Stats returns usage counters.
func (l *SpinLock) Stats() SpinStats { return l.stats }

// Lock acquires the spinlock, spinning (burning CPU on the current
// processor) while it is held by another process.
func (l *SpinLock) Lock(p *Proc) {
	if l.OpCost > 0 {
		p.Exec(l.OpCost)
	}
	l.stats.Acquisitions++
	if !l.held {
		l.held = true
		l.owner = p
		return
	}
	l.stats.Contentions++
	l.spinners = append(l.spinners, p)
	p.blockedAt = l.k.now
	p.state = stateSpinning // CPU stays occupied by the spinner
	p.blockKind, p.blockName = "spin:", l.name
	p.yieldToKernel()
}

// Unlock releases the spinlock, transferring it to the earliest spinner
// if any. The spinner's busy-wait time is charged as system CPU time.
func (l *SpinLock) Unlock(p *Proc) {
	if l.OpCost > 0 {
		p.Exec(l.OpCost)
	}
	if len(l.spinners) == 0 {
		l.held = false
		l.owner = nil
		return
	}
	next := l.spinners[0]
	copy(l.spinners, l.spinners[1:])
	l.spinners = l.spinners[:len(l.spinners)-1]
	spin := l.k.now - next.blockedAt
	next.sysCPU += spin
	next.spinTime += spin
	l.stats.TotalSpin += spin
	l.owner = next
	next.state = stateRunning
	// The resume must come from the kernel loop, not from p's stack.
	l.k.schedule(l.k.now, next.resumeFn)
}

// WaitQueue is a condition-variable-like wait list used by substrates
// (page locks, request completion) to park and wake processes.
type WaitQueue struct {
	k       *Kernel
	name    string
	waiters []*Proc
}

// NewWaitQueue creates a named wait queue on kernel k.
func NewWaitQueue(k *Kernel, name string) *WaitQueue {
	return &WaitQueue{k: k, name: name}
}

// Wait parks the calling process until WakeOne or WakeAll releases it.
func (w *WaitQueue) Wait(p *Proc) {
	w.waiters = append(w.waiters, p)
	p.block("waitq:", w.name)
}

// WakeAll wakes every parked process (in FIFO order).
func (w *WaitQueue) WakeAll() {
	for _, p := range w.waiters {
		w.k.Wake(p)
	}
	w.waiters = w.waiters[:0]
}

// WakeOne wakes the earliest parked process, if any.
func (w *WaitQueue) WakeOne() {
	if len(w.waiters) == 0 {
		return
	}
	p := w.waiters[0]
	copy(w.waiters, w.waiters[1:])
	w.waiters = w.waiters[:len(w.waiters)-1]
	w.k.Wake(p)
}

// Len reports the number of parked processes.
func (w *WaitQueue) Len() int { return len(w.waiters) }

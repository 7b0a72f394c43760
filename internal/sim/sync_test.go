package sim

import (
	"strings"
	"testing"
)

func TestSemaphoreUncontended(t *testing.T) {
	k := New(quiet(1))
	sem := NewSemaphore(k, "s")
	k.Spawn("w", func(p *Proc) {
		sem.Down(p)
		p.Exec(100)
		sem.Up(p)
	})
	k.Run()
	st := sem.Stats()
	if st.Acquisitions != 1 || st.Contentions != 0 {
		t.Errorf("stats = %+v, want 1 acquisition, 0 contentions", st)
	}
}

func TestSemaphoreContentionBlocksAndTransfers(t *testing.T) {
	k := New(quiet(2))
	sem := NewSemaphore(k, "s")
	var holderExit, waiterEnter uint64
	k.Spawn("holder", func(p *Proc) {
		sem.Down(p)
		p.Exec(50_000) // long critical section
		sem.Up(p)
		holderExit = p.Now()
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Exec(1_000) // arrive while holder is inside
		sem.Down(p)
		waiterEnter = p.Now()
		sem.Up(p)
	})
	k.Run()
	if sem.Stats().Contentions != 1 {
		t.Fatalf("contentions = %d, want 1", sem.Stats().Contentions)
	}
	if waiterEnter < 50_000 {
		t.Errorf("waiter entered at %d, before holder's critical section ended", waiterEnter)
	}
	if sem.Stats().TotalWait == 0 {
		t.Error("no wait time recorded despite contention")
	}
	_ = holderExit
}

func TestSemaphoreFIFOHandoff(t *testing.T) {
	k := New(quiet(4))
	sem := NewSemaphore(k, "s")
	var order []string
	names := []string{"a", "b", "c", "d"}
	for i, name := range names {
		i, name := i, name
		k.Spawn(name, func(p *Proc) {
			p.Exec(uint64(1 + i)) // stagger arrivals deterministically
			sem.Down(p)
			p.Exec(10_000)
			order = append(order, name)
			sem.Up(p)
		})
	}
	k.Run()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, name := range names {
		if order[i] != name {
			t.Errorf("order = %v, want FIFO %v", order, names)
			break
		}
	}
}

func TestTryDown(t *testing.T) {
	k := New(quiet(2))
	sem := NewSemaphore(k, "s")
	var got bool
	k.Spawn("holder", func(p *Proc) {
		sem.Down(p)
		p.Exec(10_000)
		sem.Up(p)
	})
	k.Spawn("trier", func(p *Proc) {
		p.Exec(1_000)
		got = sem.TryDown(p)
	})
	k.Run()
	if got {
		t.Error("TryDown succeeded while semaphore was held")
	}
}

func TestSpinLockBurnsCPU(t *testing.T) {
	k := New(quiet(2))
	l := NewSpinLock(k, "l")
	var spinnerStats ProcStats
	k.Spawn("holder", func(p *Proc) {
		l.Lock(p)
		p.Exec(20_000)
		l.Unlock(p)
	})
	k.Spawn("spinner", func(p *Proc) {
		p.Exec(1_000)
		l.Lock(p)
		spinnerStats = p.Stats()
		l.Unlock(p)
	})
	k.Run()
	if l.Stats().Contentions != 1 {
		t.Fatalf("contentions = %d, want 1", l.Stats().Contentions)
	}
	// The spinner burned CPU, not wait time, while the holder held the
	// lock: roughly 19k cycles of spinning.
	if spinnerStats.SpinTime < 10_000 {
		t.Errorf("spin time = %d, want >= 10000", spinnerStats.SpinTime)
	}
	if spinnerStats.SpinTime > spinnerStats.SysCPU {
		t.Errorf("spin time %d not included in SysCPU %d",
			spinnerStats.SpinTime, spinnerStats.SysCPU)
	}
}

func TestSpinLockUncontendedIsCheap(t *testing.T) {
	k := New(quiet(1))
	l := NewSpinLock(k, "l")
	var elapsed uint64
	k.Spawn("w", func(p *Proc) {
		start := p.Now()
		l.Lock(p)
		l.Unlock(p)
		elapsed = p.Now() - start
	})
	k.Run()
	if elapsed != 2*defaultSpinOpCost {
		t.Errorf("uncontended lock+unlock = %d cycles, want %d",
			elapsed, 2*defaultSpinOpCost)
	}
	if l.Stats().TotalSpin != 0 {
		t.Errorf("TotalSpin = %d, want 0", l.Stats().TotalSpin)
	}
}

func TestSpinLockHandoffOrder(t *testing.T) {
	k := New(Config{NumCPUs: 3, ContextSwitch: 10})
	l := NewSpinLock(k, "l")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Exec(uint64(1 + i*5))
			l.Lock(p)
			order = append(order, i)
			p.Exec(5_000)
			l.Unlock(p)
		})
	}
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("acquisition order = %v, want [0 1 2]", order)
	}
}

func TestWaitQueueWakeAll(t *testing.T) {
	k := New(quiet(2))
	wq := NewWaitQueue(k, "page")
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			p.Exec(10)
			wq.Wait(p)
			woken++
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Exec(10_000)
		wq.WakeAll()
	})
	k.Run()
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
	if wq.Len() != 0 {
		t.Errorf("queue length = %d, want 0", wq.Len())
	}
}

func TestWaitQueueWakeOne(t *testing.T) {
	k := New(quiet(2))
	wq := NewWaitQueue(k, "q")
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("waiter", func(p *Proc) {
			p.Exec(uint64(10 + i))
			wq.Wait(p)
			order = append(order, i)
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Exec(5_000)
		wq.WakeOne()
		p.Exec(5_000)
		wq.WakeOne()
	})
	k.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("wake order = %v, want [0 1]", order)
	}
}

// TestSemaphoreContentionLatencyScale verifies the latency structure the
// paper relies on in §6.1: a contended semaphore acquisition costs the
// remaining critical section plus scheduling, which is orders of
// magnitude more than the uncontended operation cost.
func TestSemaphoreContentionLatencyScale(t *testing.T) {
	k := New(Config{NumCPUs: 2, ContextSwitch: 9_350})
	sem := NewSemaphore(k, "i_sem")
	var uncontended, contended uint64
	k.Spawn("holder", func(p *Proc) {
		start := p.Now()
		sem.Down(p)
		uncontended = p.Now() - start
		p.Exec(100_000)
		sem.Up(p)
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Exec(20_000)
		start := p.Now()
		sem.Down(p)
		contended = p.Now() - start
		sem.Up(p)
	})
	k.Run()
	if contended < 10*uncontended {
		t.Errorf("contended acquisition (%d) not much slower than uncontended (%d)",
			contended, uncontended)
	}
}

func TestSemaphoreContendedHandoffAllocationFree(t *testing.T) {
	// Two processes on two CPUs ping-pong a semaphore: after the first
	// round every Down blocks and every Up hands ownership over, so the
	// marginal rounds exercise only the contended block/wake path.
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			k := New(quiet(2))
			sem := NewSemaphore(k, "i_sem")
			for i := 0; i < 2; i++ {
				k.Spawn("w", func(p *Proc) {
					for j := 0; j < rounds; j++ {
						sem.Down(p)
						p.Exec(1_000)
						sem.Up(p)
					}
				})
			}
			k.Run()
			if c := sem.Stats().Contentions; c < uint64(2*rounds-1) {
				t.Fatalf("contentions = %d over %d rounds, want every Down after the first contended", c, rounds)
			}
		})
	}
	const rounds = 5_000
	if per := (run(100+rounds) - run(100)) / rounds; per > 0.01 {
		t.Errorf("contended Down/Up allocates %.4f objects/round, want 0", per)
	}
}

func TestDeadlockDumpNamesBlockReasons(t *testing.T) {
	k := New(quiet(2))
	sem := NewSemaphore(k, "i_sem")
	spin := NewSpinLock(k, "dcache_lock")
	wq := NewWaitQueue(k, "page")
	holder := k.Spawn("holder", func(p *Proc) {
		sem.Down(p)
		spin.Lock(p)
		p.Block("never-woken")
	})
	k.Spawn("sem", func(p *Proc) { p.Exec(10); sem.Down(p) })
	k.Spawn("spin", func(p *Proc) { p.Exec(20); spin.Lock(p) })
	k.Spawn("waitq", func(p *Proc) { wq.Wait(p) })
	k.Spawn("join", func(p *Proc) { p.WaitFor(holder) })
	k.SpawnDaemon("flusher", func(p *Proc) { p.Block("idle") })
	defer func() {
		const want = `sim: deadlock
t=530 live=5 runq=0 events=0
  proc 0 "holder" state=blocked daemon=false block="never-woken"
  proc 1 "sem" state=blocked daemon=false block="sem:i_sem"
  proc 2 "spin" state=spinning daemon=false block="spin:dcache_lock"
  proc 3 "waitq" state=blocked daemon=false block="waitq:page"
  proc 4 "join" state=blocked daemon=false block="waitfor:holder"
  proc 5 "flusher" state=blocked daemon=true block="idle"
`
		if got, _ := recover().(string); got != want {
			t.Errorf("deadlock dump:\n%s\nwant:\n%s", got, want)
		}
	}()
	k.Run()
}

// A lock holder preempted while a spinner takes the only CPU can never
// run again. With timer ticks on, every tick finds no slice to
// interrupt and nothing else pending, so the world ends in the
// deadlock dump instead of ticking forever.
func TestTickedSpinLivelockPanics(t *testing.T) {
	k := New(Config{NumCPUs: 1, ContextSwitch: 100, TickPeriod: 10_000, TickCost: 100, Quantum: 20_000, Preemptive: true})
	spin := NewSpinLock(k, "l")
	k.Spawn("holder", func(p *Proc) {
		spin.Lock(p)
		p.Exec(100_000)
		spin.Unlock(p)
	})
	k.Spawn("spinner", func(p *Proc) {
		spin.Lock(p)
		spin.Unlock(p)
	})
	defer func() {
		got, _ := recover().(string)
		for _, want := range []string{
			"sim: deadlock\n",
			`"holder" state=runnable`,
			`"spinner" state=spinning daemon=false block="spin:l"`,
		} {
			if !strings.Contains(got, want) {
				t.Errorf("panic %q lacks %q", got, want)
			}
		}
	}()
	k.Run()
}

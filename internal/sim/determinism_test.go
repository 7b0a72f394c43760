package sim_test

// Determinism regression test: the simulator must produce bit-identical
// results for a fixed seed, run after run, and those results must not
// drift as the engine is optimized. Each world's golden values were
// captured before the optimizations they guard: the first world's from
// the straightforward implementation (heap-allocated events,
// closure-per-slice, copy-shift run queue, a channel round-trip per
// Exec), the tick world's from the kernel that fired every tick. Any
// fast path that changes them has changed simulation semantics, not
// just speed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"osprof/internal/core"
	"osprof/internal/sim"
)

// determinismWorkload exercises every scheduler feature at once: two
// CPUs with skewed TSCs, in-kernel preemption, timer ticks, wakeup
// preemption, semaphore and spinlock contention, sleeps, user- and
// kernel-mode execution, a daemon, and kernel-driven async completions.
func determinismWorkload() (*core.Set, sim.Stats) {
	k := sim.New(sim.Config{
		NumCPUs:     2,
		Quantum:     1 << 18,
		Preemptive:  true,
		TickPeriod:  1 << 16,
		TickCost:    5_000,
		WakePreempt: true,
		TSCSkew:     []int64{250, -250},
		Seed:        0xD5EED,
	})
	set := core.NewSet("determinism")
	mu := sim.NewSemaphore(k, "inode")
	spin := sim.NewSpinLock(k, "runq")
	wq := sim.NewWaitQueue(k, "io")

	k.SpawnDaemon("flusher", func(p *sim.Proc) {
		for {
			p.Sleep(1 << 15)
			p.Exec(2_000)
			wq.WakeAll()
		}
	})

	for w := 0; w < 3; w++ {
		// Only two of the three workers take the spinlock: with as many
		// spinlock users as CPUs plus one, a preempted holder could be
		// starved forever by spinners occupying every CPU (real kernels
		// disable preemption inside spinlock sections; this simulator
		// does not).
		useSpin := w < 2
		k.Spawn("worker", func(p *sim.Proc) {
			rng := k.Rand()
			for i := 0; i < 400; i++ {
				start := p.ReadTSC()
				mu.Down(p)
				p.Exec(uint64(rng.Int63n(4_000)) + 500)
				mu.Up(p)
				set.Record("sem_op", p.ReadTSC()-start)

				if useSpin {
					start = p.ReadTSC()
					spin.Lock(p)
					p.Exec(uint64(rng.Int63n(300)) + 50)
					spin.Unlock(p)
					set.Record("spin_op", p.ReadTSC()-start)
				}

				start = p.ReadTSC()
				p.ExecUser(uint64(rng.Int63n(20_000)) + 1_000)
				set.Record("user_op", p.ReadTSC()-start)

				if i%16 == 0 {
					start = p.ReadTSC()
					k.Schedule(uint64(rng.Int63n(8_000))+1_000, func() { wq.WakeOne() })
					wq.Wait(p)
					set.Record("io_op", p.ReadTSC()-start)
				}
				if i%32 == 0 {
					p.YieldCPU()
				}
			}
		})
	}
	k.Run()
	return set, k.Stats()
}

func marshalSet(t *testing.T, s *core.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSet(&buf, s); err != nil {
		t.Fatalf("WriteSet: %v", err)
	}
	return buf.Bytes()
}

func TestDeterminismSameSeedIdenticalRuns(t *testing.T) {
	set1, stats1 := determinismWorkload()
	set2, stats2 := determinismWorkload()

	if stats1 != stats2 {
		t.Errorf("Stats differ across identical runs:\n  run1 %+v\n  run2 %+v", stats1, stats2)
	}
	b1, b2 := marshalSet(t, set1), marshalSet(t, set2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("marshaled profiles differ across identical runs:\n%s\n---\n%s", b1, b2)
	}
	if err := set1.Validate(); err != nil {
		t.Errorf("profile checksum: %v", err)
	}
}

// Goldens captured from the pre-refactor simulator (seed 0xD5EED).
func TestDeterminismMatchesPreRefactorGolden(t *testing.T) {
	set, stats := determinismWorkload()
	checkGolden(t, set, stats, golden{
		setSHA256:    "bbe787f6685d30384de6901281838e93d593ab08d6796758368af3dcc22b5a5f",
		ctxSwitches:  1303,
		preemptions:  597,
		timerTicks:   242,
		totalOps:     3275,
		totalLatency: 44899215,
	})
}

// golden is one world's expected statistics and profile digest.
type golden struct {
	setSHA256                            string
	ctxSwitches, preemptions, timerTicks uint64
	totalOps, totalLatency               uint64
}

func checkGolden(t *testing.T, set *core.Set, stats sim.Stats, want golden) {
	t.Helper()
	sum := sha256.Sum256(marshalSet(t, set))
	got := golden{
		setSHA256:    hex.EncodeToString(sum[:]),
		ctxSwitches:  stats.ContextSwitches,
		preemptions:  stats.Preemptions,
		timerTicks:   stats.TimerTicks,
		totalOps:     set.TotalOps(),
		totalLatency: set.TotalLatency(),
	}
	if got != want {
		t.Errorf("world drifted from its golden:\n got %+v\nwant %+v", got, want)
	}
}

// tickWorkload is a second world, aimed at the timer interrupt rather
// than at lock contention. Every process regularly parks on a
// completion many tick periods ahead, so both CPUs idle through long
// stretches; some completions land exactly on a tick instant; the
// user-mode hog takes busy ticks that preempt it once its quantum is
// spent, while kernel-mode slices take busy ticks that never preempt.
// The spinlock holder ends each critical section exactly on a tick
// instant: the tick before re-keys its slice by tickCost onto the
// next tick, which is scheduled after the slice and so fires just
// after the handoff, finding the spinner Running with no slice until
// its resume event fires.
func tickWorkload() (*core.Set, sim.Stats) {
	const (
		period   = 1 << 12
		tickCost = 300
	)
	k := sim.New(sim.Config{
		NumCPUs:       2,
		Quantum:       4 * period,
		TickPeriod:    period,
		TickCost:      tickCost,
		ContextSwitch: 700,
		Seed:          0x71C4,
	})
	set := core.NewSet("ticks")
	spin := sim.NewSpinLock(k, "handoff")
	spin.OpCost = 0 // Unlock hands over at the instant the holder's Exec ends
	rng := k.Rand()

	// await parks p on a completion delay cycles from now; aligned
	// pushes the completion onto the next tick instant after it.
	await := func(p *sim.Proc, op string, delay uint64, aligned bool) {
		if aligned {
			delay += period - (k.Now()+delay)%period
		}
		start := p.ReadTSC()
		k.Schedule(delay, func() { k.Wake(p) })
		p.Block(op)
		set.Record(op, p.ReadTSC()-start)
	}
	far := func() uint64 { return uint64(rng.Int63n(48)+8)*period + uint64(rng.Int63n(period)) }

	k.Spawn("holder", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			start := p.ReadTSC()
			spin.Lock(p)
			now := k.Now()
			p.Exec(now/period*period + 2*period - now - tickCost)
			spin.Unlock(p)
			set.Record("handoff", p.ReadTSC()-start)
			p.Exec(uint64(rng.Int63n(2_000)) + 100)
			if i%8 == 7 {
				await(p, "io_far", far(), i%16 == 15)
			}
		}
	})
	k.Spawn("spinner", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			p.Exec(uint64(rng.Int63n(1_500)) + 50)
			start := p.ReadTSC()
			spin.Lock(p)
			p.Exec(uint64(rng.Int63n(400)) + 20)
			spin.Unlock(p)
			set.Record("spin", p.ReadTSC()-start)
			if i%8 == 3 {
				await(p, "io_far", far(), i%16 == 11)
			}
		}
	})
	k.Spawn("hog", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			start := p.ReadTSC()
			p.ExecUser(uint64(rng.Int63n(6*period)) + 2*period)
			set.Record("user", p.ReadTSC()-start)
			await(p, "io_far", far(), i%3 == 0)
		}
	})
	k.Spawn("io", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			p.Exec(uint64(rng.Int63n(3_000)) + 200)
			await(p, "io_near", uint64(rng.Int63n(3*period)), i%4 == 0)
		}
	})
	k.Run()
	return set, k.Stats()
}

// Goldens captured from the kernel that fired every idle tick one by
// one and re-armed every interrupted slice with a fresh event.
func TestDeterminismTickWorldMatchesGolden(t *testing.T) {
	set, stats := tickWorkload()
	checkGolden(t, set, stats, golden{
		setSHA256:    "227164a00cd0ef7ce143349e7ef61c931ff288be32ca6762cd13109f88d094e2",
		ctxSwitches:  345,
		preemptions:  6,
		timerTicks:   2430,
		totalOps:     995,
		totalLatency: 24330459,
	})
}

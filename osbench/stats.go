package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// dist summarises one metric's samples within a run: how many there
// were, their median and quartiles. Reports carry it for every metric
// so a reader can judge a number's spread without rerunning.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// distOf summarises xs with the quartile rule of Python's
// statistics.quantiles (the exclusive method), which is how the
// spread of repeated runs is judged.
func distOf(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	switch len(s) {
	case 0:
		return d
	case 1:
		d.Median, d.Q1, d.Q3 = s[0], s[0], s[0]
		return d
	}
	d.Median = median(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	d.Q1, d.Q3 = q(1), q(3)
	return d
}

// median of sorted xs.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// latencies collects per-request wall times of one request class.
type latencies []time.Duration

// pct is the nearest-rank q-quantile in milliseconds.
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pairedOverhead turns paired (off, on) wall times into per-pair
// overheads in percent. Callers alternate which side of a pair runs
// first, so a drift in host speed lands on both sides equally.
func pairedOverhead(off, on []time.Duration) []float64 {
	out := make([]float64, 0, len(off))
	for i := range off {
		if off[i] > 0 {
			out = append(out, 100*float64(on[i]-off[i])/float64(off[i]))
		}
	}
	return out
}

// meter measures one stretch of work: its wall time, the process CPU
// time and heap bytes it used, and the peak live Go heap while it ran
// (as the last GC cycle marked it). Live heap rather than allocated
// heap keeps the peak independent of when collections happen to run;
// runtime/metrics reads do not stop the world, so sampling every few
// milliseconds costs next to nothing.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
	peak   uint64 // written by the sampler until done is closed
	stop   chan struct{}
	done   chan struct{}
}

// reading is what a meter measured.
type reading struct {
	wall    time.Duration
	cpuMs   float64
	allocKB float64
	heapMB  float64
}

const heapMetric = "/gc/heap/live:bytes"

// allocCounts is the bytes and objects the process has allocated on
// the heap so far. runtime/metrics reads, unlike runtime.ReadMemStats,
// do not stop the world.
func allocCounts() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// allocated is the bytes the process has allocated on the heap so far.
func allocated() uint64 {
	b, _ := allocCounts()
	return b
}

func startMeter() *meter {
	m := &meter{t0: time.Now(), cpu0: cpuTime(), alloc0: allocated(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			m.peak = max(m.peak, sample[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// Stop ends the stretch and returns what it used.
func (m *meter) Stop() reading {
	wall, cpu, alloc := time.Since(m.t0), cpuTime()-m.cpu0, allocated()-m.alloc0
	close(m.stop)
	<-m.done
	return reading{wall: wall, cpuMs: ms(cpu), allocKB: float64(alloc) / 1024, heapMB: float64(m.peak) / (1 << 20)}
}

// allocMeter accumulates the heap allocations of stretches of code.
type allocMeter struct {
	bytes, objects uint64
	b0, o0         uint64
}

func (a *allocMeter) start() { a.b0, a.o0 = allocCounts() }

func (a *allocMeter) stop() {
	b, o := allocCounts()
	a.bytes += b - a.b0
	a.objects += o - a.o0
}

// cpuTime is the CPU time the process has used, user plus system.
// Unlike wall time it does not grow while the host runs other guests
// (steal), which on a shared machine swings wall-clock figures by a
// factor of two or more between consecutive runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// withN sets a summary's sample count. Percentile metrics count the
// requests they rest on, while their quartiles are those of the
// per-round values.
func withN(d dist, n int) dist {
	d.N = n
	return d
}

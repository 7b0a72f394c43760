package sim

import "osprof/internal/core"

// Run-queue load as a profile dimension (perf-load's insight): a
// latency sample is only interpretable alongside how many processes
// were competing for CPUs when it was taken. The kernel exposes a
// cheap instantaneous load probe (Load) and, when enabled via
// TrackLoad, accounts how many cycles the machine spent in each
// log-spaced load band so analysis can weight per-band histograms by
// observed band occupancy (the -realtime normalization). The bands and
// their names are the core.DimLoad values.

// LoadBand maps an instantaneous load to its index in
// core.DimLoad.Values(): band 0 covers load <=1 (the sampling process
// alone), band 1 covers 2-4, band 2 covers 5 and above.
func LoadBand(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	default:
		return 2
	}
}

// Load returns the instantaneous run-queue load: processes running or
// spinning on a CPU plus processes waiting on the run queue. It is a
// pure observation — O(NumCPUs), no events, no simulated cost — so
// profilers may sample it without perturbing the simulation.
func (k *Kernel) Load() int {
	if k.loadTrack {
		// The occupancy accounting already maintains the load
		// incrementally (the only transitions that change it call
		// noteLoad), so conditioned profilers sampling on every
		// operation get a field read instead of the scan.
		return k.loadCur
	}
	n := k.runq.Len()
	for _, c := range k.cpus {
		if c.p != nil {
			n++
		}
	}
	return n
}

// TrackLoad enables load-occupancy accounting: from this call on the
// kernel attributes every elapsed cycle to the load band the machine
// was in. Disabled by default so untracked simulations pay only a
// bool check on the scheduling paths.
func (k *Kernel) TrackLoad() {
	if k.loadTrack {
		return
	}
	k.loadTrack = true
	k.loadCur = k.Load()
	k.loadLast = k.now
}

// noteLoad accrues the cycles spent at the current load band and then
// applies delta. It is called from the only two scheduler transitions
// that change the total load — makeRunnable (+1) and releaseCPU (-1);
// assignment, preemption and wakeup preemption move a process between
// the run queue and a CPU without changing the sum.
func (k *Kernel) noteLoad(delta int) {
	if !k.loadTrack {
		return
	}
	k.loadOcc[LoadBand(k.loadCur)] += k.now - k.loadLast
	k.loadLast = k.now
	k.loadCur += delta
}

// LoadTracked reports whether TrackLoad enabled occupancy accounting.
func (k *Kernel) LoadTracked() bool { return k.loadTrack }

// LoadOccupancy returns the cycles spent in each load band since
// TrackLoad, including the still-open interval up to now. All zeros
// when tracking was never enabled.
func (k *Kernel) LoadOccupancy() [core.LoadBands]uint64 {
	occ := k.loadOcc
	if k.loadTrack {
		occ[LoadBand(k.loadCur)] += k.now - k.loadLast
	}
	return occ
}

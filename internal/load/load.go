// Package load conditions latency profiles on run-queue load, the
// perf-load idea (dvyukov/perf-load): a latency sample is only
// interpretable alongside how many processes were competing for CPUs
// when it was taken. Profilers record each sample twice — once into
// the ordinary per-operation profile and once into a load-keyed
// companion profile, named along core.DimLoad (one per sim.LoadBand),
// so every downstream surface — envelopes, archive, diff, summary,
// serve — carries the load dimension with no format change. Weights
// implements perf-load's -realtime normalization: per-band histograms
// are scaled by the observed band occupancy so quantiles read as
// wall-clock expectations instead of per-sample averages.
package load

import "osprof/internal/core"

// Recorder folds load-keyed samples into a profile set. A nil
// *Recorder is valid and inert so profilers can carry the field
// unconditionally.
type Recorder struct {
	set *core.Set
}

// NewRecorder creates a recorder folding into set.
func NewRecorder(set *core.Set) *Recorder {
	return &Recorder{set: set}
}

// Handle is a pre-resolved per-operation recording handle (the
// tracer's opHandles pattern): band profiles are named and created the
// first time a band is touched, so the steady-state record path is
// allocation-free. Handles of one operation share its band profiles
// through the set. A nil *Handle is valid and inert.
type Handle struct {
	set   *core.Set
	op    string
	profs [core.LoadBands]*core.Profile
}

// Handle resolves op's recording handle. Returns nil on a nil
// recorder.
func (r *Recorder) Handle(op string) *Handle {
	if r == nil {
		return nil
	}
	return &Handle{set: r.set, op: op}
}

// Record sorts one latency sample into the handle's band profile.
func (h *Handle) Record(band int, latency uint64) {
	if h == nil {
		return
	}
	prof := h.profs[band]
	if prof == nil {
		prof = h.set.Get(core.DimLoad.Op(h.op, core.DimLoad.Values()[band]))
		h.profs[band] = prof
	}
	prof.Record(latency)
}

// Weights computes the perf-load realtime weight of each band:
//
//	w_b = (occ_b / total_occ) / (count_b / total_count)
//
// occ is the cycles the machine spent at each band (the kernel's
// LoadOccupancy) and counts the per-band sample counts. Scaling a
// band's histogram counts by w_b re-weights the profile from "per
// sample" to "per cycle of wall-clock at that load", so a band the
// machine lived in but rarely sampled stops being underrepresented.
// Bands with no samples get weight 0.
func Weights(occ, counts [core.LoadBands]uint64) [core.LoadBands]float64 {
	var w [core.LoadBands]float64
	var totOcc, totCnt uint64
	for b := 0; b < core.LoadBands; b++ {
		totOcc += occ[b]
		totCnt += counts[b]
	}
	if totOcc == 0 || totCnt == 0 {
		return w
	}
	for b := 0; b < core.LoadBands; b++ {
		if counts[b] == 0 {
			continue
		}
		occShare := float64(occ[b]) / float64(totOcc)
		cntShare := float64(counts[b]) / float64(totCnt)
		w[b] = occShare / cntShare
	}
	return w
}

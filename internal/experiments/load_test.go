package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/scenario"
)

// TestLoadCellsDiffAttribution is the end-to-end acceptance path: two
// runs of the same workload differing only in contention, and the
// load-aware diff must attribute the change to the contended band —
// the workload's samples moved out of load:1 into load:2-4.
func TestLoadCellsDiffAttribution(t *testing.T) {
	cells := scenario.LoadCells(1)
	solo := RecordScenario(cells[0])
	if solo.Err != nil {
		t.Fatal(solo.Err)
	}
	packed := RecordScenario(cells[1])
	if packed.Err != nil {
		t.Fatal(packed.Err)
	}
	rep := diff.New().Sets(solo.ProfileSet(), packed.ProfileSet())
	if len(rep.Loads) == 0 {
		t.Fatal("contention pair produced no load attribution")
	}
	var read *diff.LoadMove
	for i := range rep.Loads {
		if rep.Loads[i].Op == "read" {
			read = &rep.Loads[i]
		}
	}
	if read == nil {
		t.Fatalf("no read attribution in %+v", rep.Loads)
	}
	if read.Band != "2-4" {
		t.Errorf("read attributed to load:%s, want the contended 2-4 (%+v)", read.Band, read)
	}
}

// TestRunMetaCarriesLoadOccupancy checks the -realtime plumbing: a
// conditioned run's metadata carries the per-band occupancy, the bands
// partition the whole run, and unconditioned runs stay key-for-key
// identical to the pre-load shape.
func TestRunMetaCarriesLoadOccupancy(t *testing.T) {
	r := RecordScenario(scenario.LoadCells(1)[1])
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	m := r.RunMeta()
	if m["loadprofile"] != "true" {
		t.Fatalf("conditioned run meta: %v", m)
	}
	var total uint64
	for _, band := range core.DimLoad.Values() {
		v, ok := m["loadocc:"+band]
		if !ok {
			t.Fatalf("meta misses band %s: %v", band, m)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	elapsed, err := strconv.ParseUint(m["elapsed"], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	// TrackLoad starts at t=0, so every simulated cycle is banded.
	if total != elapsed {
		t.Errorf("occupancy total %d != elapsed %d", total, elapsed)
	}

	plain := RecordScenario(scenario.Matrix(1)[0])
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	for k := range plain.RunMeta() {
		if k == "loadprofile" || len(k) > 8 && k[:8] == "loadocc:" {
			t.Errorf("unconditioned run meta grew %q", k)
		}
	}
}

// loadCellEnvelopeSHA pins the byte-identical run envelope of the
// NumCPUs=4 contention cell: the SMP scheduler, the load accounting,
// and the banded profiles are all deterministic, and any drift in this
// hash is a behavioral change that needs a deliberate re-pin.
const loadCellEnvelopeSHA = "4f1bd2e21ee267a38e857f99ec1aa39c0425d2057f0d3c636d1af7fb6aef5507"

func TestLoadCellEnvelopeGolden(t *testing.T) {
	envelope := func() []byte {
		spec := scenario.LoadCells(1)[2] // 8 readers on 4 CPUs
		if spec.Kernel.NumCPUs != 4 {
			t.Fatalf("cell moved: NumCPUs=%d", spec.Kernel.NumCPUs)
		}
		r := RecordScenario(spec)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		var buf bytes.Buffer
		err := core.WriteRun(&buf, &core.Run{
			Fingerprint: spec.Fingerprint(),
			Meta:        r.RunMeta(),
			Set:         r.ProfileSet(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := envelope(), envelope()
	if !bytes.Equal(a, b) {
		t.Fatal("reruns of the 4-CPU cell produce different envelopes")
	}
	sum := sha256.Sum256(a)
	if got := hex.EncodeToString(sum[:]); got != loadCellEnvelopeSHA {
		t.Errorf("envelope sha = %s, want %s (behavioral change: re-pin deliberately)",
			got, loadCellEnvelopeSHA)
	}
}

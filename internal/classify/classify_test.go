package classify

import (
	"bytes"
	"encoding/json"
	"testing"

	"osprof/internal/core"
	"osprof/internal/store"
)

// mkRun builds a labeled run whose set holds one profile per op, each
// populated with the given latencies.
func mkRun(label string, ops map[string][]uint64) *core.Run {
	set := core.NewSet(label)
	for op, lats := range ops {
		p := set.Get(op)
		for _, l := range lats {
			p.Record(l)
		}
	}
	meta := map[string]string{}
	if label != "" {
		meta[LabelMetaKey] = label
	}
	return &core.Run{Meta: meta, Set: set}
}

// many repeats a latency n times.
func many(lat uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lat
	}
	return out
}

// testCorpus is a three-label corpus with well-separated read shapes:
// fast reads, slow reads, and a backend with a different op set.
func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpus, err := BuildCorpus([]*core.Run{
		mkRun("fast", map[string][]uint64{
			"read": many(1<<6, 1000), "open": many(1<<8, 10),
		}),
		mkRun("slow", map[string][]uint64{
			"read": many(1<<20, 1000), "open": many(1<<8, 10),
		}),
		mkRun("other-backend", map[string][]uint64{
			"lookup": many(1<<10, 500), "getdents": many(1<<12, 500),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestBuildCorpusGroupsByLabel(t *testing.T) {
	a := mkRun("x", map[string][]uint64{"read": many(1<<6, 100)})
	b := mkRun("x", map[string][]uint64{"read": many(1<<7, 100)})
	c := mkRun("a-first", map[string][]uint64{"read": many(1<<6, 100)})
	corpus, err := BuildCorpus([]*core.Run{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if got := corpus.Labels(); len(got) != 2 || got[0] != "a-first" || got[1] != "x" {
		t.Fatalf("labels %v (want sorted [a-first x])", got)
	}
	x := corpus.Centroids[1]
	if x.Runs != 2 {
		t.Errorf("centroid x folded %d runs, want 2", x.Runs)
	}
	// Both member runs' counts merged into one set.
	if n := x.Set().Lookup("read").Count; n != 200 {
		t.Errorf("merged read count %d, want 200", n)
	}
}

func TestBuildCorpusErrors(t *testing.T) {
	unlabeled := mkRun("", map[string][]uint64{"read": many(1, 1)})
	if _, err := BuildCorpus([]*core.Run{unlabeled}); err == nil {
		t.Error("unlabeled run accepted")
	}
	r2 := &core.Run{
		Meta: map[string]string{LabelMetaKey: "x"},
		Set:  core.NewSetR("x", 2),
	}
	r1 := mkRun("y", map[string][]uint64{"read": many(1, 1)})
	if _, err := BuildCorpus([]*core.Run{r1, r2}); err == nil {
		t.Error("mixed resolutions accepted")
	}
	if _, err := BuildCorpus([]*core.Run{{Meta: map[string]string{LabelMetaKey: "x"}}}); err == nil {
		t.Error("run without a set accepted")
	}
	// An empty corpus builds fine (and Identify abstains on it).
	corpus, err := BuildCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Centroids) != 0 {
		t.Errorf("empty corpus has %d centroids", len(corpus.Centroids))
	}
}

func TestIdentifyMatchesNearestLabel(t *testing.T) {
	corpus := testCorpus(t)
	unknown := mkRun("", map[string][]uint64{
		"read": many(1<<6, 990), "open": many(1<<8, 10),
	})
	unknown.Fingerprint = "abc123"
	rep := New().Identify(corpus, unknown)
	if !rep.Matched || rep.Label != "fast" {
		t.Fatalf("verdict: %+v", rep)
	}
	if rep.Fingerprint != "abc123" {
		t.Errorf("fingerprint not carried: %q", rep.Fingerprint)
	}
	if len(rep.Ranking) != 3 || rep.Ranking[0].Label != "fast" {
		t.Fatalf("ranking: %+v", rep.Ranking)
	}
	for i := 1; i < len(rep.Ranking); i++ {
		if rep.Ranking[i].Distance < rep.Ranking[i-1].Distance {
			t.Fatalf("ranking not sorted: %+v", rep.Ranking)
		}
	}
	if len(rep.Evidence) == 0 {
		t.Fatal("no evidence rows")
	}
	// The read shape is what separates "fast" from the runner-up.
	if rep.Evidence[0].Op != "read" {
		t.Errorf("strongest evidence is %q, want read: %+v", rep.Evidence[0].Op, rep.Evidence)
	}
	if rep.Evidence[0].Contribution <= 0 {
		t.Errorf("top evidence does not favor the verdict: %+v", rep.Evidence[0])
	}
}

func TestIdentifyAbstainsOnForeignProfile(t *testing.T) {
	corpus := testCorpus(t)
	// An op mix no centroid has: distance driven to ~1 by one-sided ops.
	unknown := mkRun("", map[string][]uint64{
		"mmap": many(1<<14, 500), "write": many(1<<16, 500),
	})
	rep := New().Identify(corpus, unknown)
	if rep.Matched {
		t.Fatalf("foreign profile matched %q: %+v", rep.Label, rep)
	}
	if rep.Distance <= New().MaxDistance {
		t.Errorf("foreign distance %v suspiciously small", rep.Distance)
	}
	if rep.Reason == "" || rep.Label == "" {
		t.Errorf("abstention must carry a reason and the best guess: %+v", rep)
	}
}

func TestIdentifyAbstainsOnAmbiguousCorpus(t *testing.T) {
	// Two labels with identical centroids: margin 0, always abstain —
	// even for a run sitting exactly on both.
	shape := map[string][]uint64{"read": many(1<<6, 1000)}
	corpus, err := BuildCorpus([]*core.Run{mkRun("twin-a", shape), mkRun("twin-b", shape)})
	if err != nil {
		t.Fatal(err)
	}
	rep := New().Identify(corpus, mkRun("", shape))
	if rep.Matched {
		t.Fatalf("ambiguous twins matched: %+v", rep)
	}
	if rep.Margin != 0 {
		t.Errorf("identical twins must have margin 0, got %v", rep.Margin)
	}
}

func TestIdentifySingleLabelCorpus(t *testing.T) {
	shape := map[string][]uint64{"read": many(1<<6, 1000)}
	corpus, err := BuildCorpus([]*core.Run{mkRun("only", shape)})
	if err != nil {
		t.Fatal(err)
	}
	rep := New().Identify(corpus, mkRun("", shape))
	if !rep.Matched || rep.Label != "only" || rep.Margin != 1 {
		t.Fatalf("single-label exact match: %+v", rep)
	}
	if len(rep.Evidence) != 0 {
		t.Errorf("no runner-up, no evidence: %+v", rep.Evidence)
	}
}

func TestIdentifyDegenerateInputsAbstainCleanly(t *testing.T) {
	corpus := testCorpus(t)
	cases := map[string]*core.Run{
		"nil run":          nil,
		"nil set":          {Meta: map[string]string{}},
		"empty set":        {Set: core.NewSet("empty")},
		"wrong resolution": {Set: core.NewSetR("r2", 2)},
	}
	for name, run := range cases {
		rep := New().Identify(corpus, run)
		if rep == nil || rep.Matched {
			t.Errorf("%s: %+v", name, rep)
			continue
		}
		if rep.Reason == "" {
			t.Errorf("%s: abstention without a reason", name)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Errorf("%s: report not marshalable: %v", name, err)
		}
	}
	if rep := New().Identify(&Corpus{}, mkRun("", map[string][]uint64{"read": many(1, 1)})); rep.Matched {
		t.Errorf("empty corpus matched: %+v", rep)
	}

	// The degenerate-of-degenerates: a zero-op run against a corpus
	// whose only centroid is also zero-op must abstain, not match at
	// distance 0 (no operation anywhere carries weight).
	emptyCorpus, err := BuildCorpus([]*core.Run{{
		Meta: map[string]string{LabelMetaKey: "hollow"},
		Set:  core.NewSet("hollow"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := New().Identify(emptyCorpus, &core.Run{Set: core.NewSet("empty")}); rep.Matched {
		t.Errorf("zero-op run matched a zero-op centroid: %+v", rep)
	}
}

// Two identifications of the same run against the same corpus must
// render byte-identical JSON: the CLI's -json output is asserted
// byte-stable, and any map-order leak in the report would break that.
func TestIdentifyReportIsByteStable(t *testing.T) {
	corpus := testCorpus(t)
	unknown := mkRun("", map[string][]uint64{
		"read": many(1<<6, 990), "open": many(1<<8, 10), "lookup": many(1<<10, 5),
	})
	marshal := func() []byte {
		b, err := json.MarshalIndent(New().Identify(corpus, unknown), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := marshal(), marshal(); !bytes.Equal(a, b) {
		t.Errorf("reports differ across identical identifications:\n%s\nvs\n%s", a, b)
	}
}

// Early abstentions (no run, empty corpus, resolution mismatch) must
// marshal Ranking as [], never null — the empty-collection convention
// every versioned JSON document here follows.
func TestAbstentionRankingMarshalsEmpty(t *testing.T) {
	b, err := json.Marshal(New().Identify(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"ranking":[]`)) {
		t.Errorf("abstention report: %s", b)
	}
}

// FromArchive must keep the majority resolution and drop strays: one
// odd-resolution labeled ingest must not make corpus building error
// (which would turn every identification into a hard failure).
func TestFromArchiveKeepsMajorityResolution(t *testing.T) {
	arch, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func(run *core.Run) {
		t.Helper()
		if _, _, err := arch.Put(run); err != nil {
			t.Fatal(err)
		}
	}
	put(mkRun("r1-a", map[string][]uint64{"read": many(1<<6, 100)}))
	put(mkRun("r1-b", map[string][]uint64{"read": many(1<<20, 100)}))
	stray := &core.Run{
		Meta: map[string]string{LabelMetaKey: "r2-stray"},
		Set:  core.NewSetR("stray", 2),
	}
	stray.Set.Record("read", 1<<6)
	put(stray)
	put(&core.Run{Set: core.NewSet("unlabeled")}) // never part of the corpus

	corpus, labeled, err := FromArchive(arch)
	if err != nil {
		t.Fatal(err)
	}
	if labeled != 2 {
		t.Errorf("labeled=%d, want 2 (the r=1 majority)", labeled)
	}
	if got := corpus.Labels(); len(got) != 2 || got[0] != "r1-a" || got[1] != "r1-b" {
		t.Errorf("labels %v", got)
	}
	if corpus.R != 1 {
		t.Errorf("kept resolution %d, want 1", corpus.R)
	}

	// A 2-2 tie keeps the lower resolution, deterministically.
	stray2 := &core.Run{
		Meta: map[string]string{LabelMetaKey: "r2-more"},
		Set:  core.NewSetR("stray2", 2),
	}
	stray2.Set.Record("read", 1<<8)
	put(stray2)
	corpus, labeled, err = FromArchive(arch)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.R != 1 || labeled != 2 {
		t.Errorf("tie broke to r=%d with %d runs, want r=1 with 2", corpus.R, labeled)
	}
}

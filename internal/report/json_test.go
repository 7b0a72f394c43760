package report_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"osprof/internal/classify"
	"osprof/internal/core"
	"osprof/internal/diff"
	"osprof/internal/report"
	"osprof/internal/serve"
	"osprof/internal/store"
	"osprof/internal/summary"
	"osprof/internal/watch"
)

// tricky is embedded in every free-text field: quotes, backslashes,
// brackets, braces, separators and the HTML characters json.Marshal
// escapes.
const tricky = `q"uo\te [a]{b},c:d <x&y> é ` + "tab\tnl\n"

// jsonSet records a traced, load-conditioned set whose base op peaks at
// bucket b, so two sets at different b diff with layer and load
// attribution.
func jsonSet(name string, b int) *core.Set {
	s := core.NewSet(name)
	rec := func(op string, lat uint64, n int) {
		for i := 0; i < n; i++ {
			s.Record(op, lat)
		}
	}
	rec("read", 1<<b, 400)
	rec("read@vfs", 1<<6, 400)
	rec("read@fs", 1<<b, 400)
	rec("read@load:1", 1<<6, 300)
	rec("read@load:5+", 1<<b, 100)
	rec(tricky, 1<<8, 50)
	return s
}

func jsonRun(name string, b int, label string) *core.Run {
	r := &core.Run{Fingerprint: "fp-" + name, Set: jsonSet(name, b), Meta: map[string]string{}}
	if label != "" {
		r.Meta[classify.LabelMetaKey] = label
	}
	return r
}

// jsonDocs returns one instance of every document type the CLI and the
// service emit, built by the engines that produce them where possible.
func jsonDocs(t testing.TB) map[string]any {
	t.Helper()
	base, moved := jsonRun("base "+tricky, 8, ""), jsonRun("moved "+tricky, 14, "")
	d := diff.New().Runs(base, moved)
	if len(d.Layers) == 0 || len(d.Loads) == 0 {
		t.Fatalf("diff lacks layer or load attribution: layers=%d loads=%d", len(d.Layers), len(d.Loads))
	}
	corpus, err := classify.BuildCorpus([]*core.Run{
		jsonRun("c1", 8, "healthy "+tricky), jsonRun("c2", 14, "slow "+tricky),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := classify.New().Identify(corpus, moved)
	wr := watch.New().Evaluate(base, moved, corpus)
	entries := []store.Entry{
		{Seq: 1, ID: "aa" + tricky, Fingerprint: "fp", Name: tricky, Label: tricky},
		{Seq: 2, ID: "bb", Name: "plain"},
	}
	return map[string]any{
		"diff":        d,
		"diff-empty":  diff.New().Runs(base, base),
		"matrix":      diff.New().Matrix([]*core.Run{base}, []*core.Run{moved}),
		"identify":    id,
		"summary":     report.SummaryOf(summary.OfSet(base.Set, -1)),
		"layers":      report.LayersOf(base.Set),
		"load":        report.LoadOf(base.Set),
		"ingest":      serve.IngestDoc{Schema: serve.IngestSchema, ID: "id", Created: true, Name: tricky, Watch: wr},
		"ingest-bare": serve.IngestDoc{Schema: serve.IngestSchema, ID: "id", Name: "n"},
		"ingest-batch": serve.IngestBatchDoc{Schema: serve.IngestBatchSchema, Flushed: 2, Results: []serve.BatchItemDoc{
			{Status: serve.StatusArchived, ID: "id", Created: true, Name: tricky, Watch: wr},
			{Status: serve.StatusCoalesced, Fingerprint: "fp", Seq: 3},
			{Status: serve.StatusError, Error: tricky},
		}},
		"ingest-batch-empty": serve.IngestBatchDoc{Schema: serve.IngestBatchSchema, Results: []serve.BatchItemDoc{}},
		"flush":              serve.FlushDoc{Schema: serve.FlushSchema, Flushed: 1},
		"runs":               report.RunList(entries),
		"runs-empty":         report.RunList(nil),
		"runs-page":          report.RunPage(entries, true),
		"watches": serve.WatchListDoc{Schema: serve.WatchListSchema, Watches: []serve.WatchDoc{
			{Name: tricky, Baseline: "baseline:" + tricky, Last: wr},
			{Name: "unevaluated", Baseline: "baseline:unevaluated"},
		}},
		"watches-empty": serve.WatchListDoc{Schema: serve.WatchListSchema, Watches: []serve.WatchDoc{}},
		"baselines":     report.BaselineList(map[string]string{tricky: "id1", "fp2": "id2"}),
		"baseline":      report.BaselineEntry{Fingerprint: tricky, Run: "id"},
		"corpus":        report.CorpusList([]string{"a", tricky}, map[string]string{tricky: tricky}),
		"error":         serve.ErrorDoc{Error: tricky},
		"scalars":       []any{nil, true, false, 0, -1.5e-300, "", map[string]any{}, []any{}, [][]any{{}, {[]any{}}}},
	}
}

// encoderJSON is the reference rendering: json.Encoder with two-space
// indentation.
func encoderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func TestJSONMatchesEncoder(t *testing.T) {
	for name, v := range jsonDocs(t) {
		want, err := encoderJSON(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		if err := report.JSON(&got, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: report.JSON differs from json.Encoder\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
		}
	}
}

func TestJSONMarshalError(t *testing.T) {
	var buf bytes.Buffer
	if err := report.JSON(&buf, map[string]any{"f": func() {}}); err == nil {
		t.Fatal("unsupported value encoded without error")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed encode wrote %q", buf.Bytes())
	}
}

// FuzzJSONIndent holds the single-pass indenter to json.Indent on any
// valid document in the compact form json.Marshal writes.
func FuzzJSONIndent(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`[[],{},[{}],{"a":[]}]`))
	f.Add([]byte(`{"k\"}":"v\\\"]","n":[1,-2.5e3,true,false,null],"e":"<&>"}`))
	f.Add([]byte(` "top-level string" `))
	for _, v := range jsonDocs(f) {
		if b, err := json.Marshal(v); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// Marshal validates the document and rewrites it in its own
		// compact form, the only form the indenter is handed.
		compact, err := json.Marshal(json.RawMessage(in))
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		var got bytes.Buffer
		if err := report.JSON(&got, json.RawMessage(in)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("indent(%q)\ngot:  %q\nwant: %q", compact, got.Bytes(), want.Bytes())
		}
	})
}

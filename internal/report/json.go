package report

import (
	"encoding/json"
	"io"
	"sort"

	"osprof/internal/store"
)

// This file renders archive state as versioned JSON documents: the
// machine-readable counterpart of the ASCII histograms, shared by the
// CLI's -json paths and the `osprof serve` HTTP service so both speak
// the same schema.

// JSON schema identifiers for the archive listing documents.
const (
	RunsSchema      = "osprof-runs/v1"
	BaselinesSchema = "osprof-baselines/v1"
	CorpusSchema    = "osprof-corpus/v1"
)

// JSON writes v as indented JSON with a trailing newline — the one
// encoder shape used by every -json CLI path and service response. It
// marshals v once and indents the compact bytes in a single pass; the
// document is byte-identical to json.Encoder with SetIndent("", "  ").
func JSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	// Two-space indentation grows the CLI and service documents by
	// 1.1-1.7x, so twice the compact size rarely needs a regrowth.
	_, err = w.Write(indent(make([]byte, 0, 2*len(b)), b))
	return err
}

// indent appends src, compact JSON as json.Marshal writes it, to dst
// with two-space indentation and a trailing newline: the bytes
// json.Indent(dst, src, "", "  ") writes, plus the newline. Empty
// objects and arrays stay compact, and string contents (escapes
// included) are copied unchanged.
func indent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j, len(src)-1)
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, src[i+1])
				i++
				continue
			}
			depth++
			dst = newline(dst, depth)
		case '}', ']':
			depth--
			dst = newline(dst, depth)
			dst = append(dst, c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '\n')
}

// newline starts a new line indented to depth.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// RunEntry is the JSON shape of one archived run. Summary is the
// opt-in triage column (GET /v1/runs?summary=1); plain listings omit
// it, so existing documents are byte-identical.
type RunEntry struct {
	Seq         int    `json:"seq"`
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Name        string `json:"name"`

	// Label is the corpus label mirrored in the archive index (absent
	// for unlabeled runs, keeping their documents byte-identical).
	Label string `json:"label,omitempty"`

	Summary *RunSummary `json:"summary,omitempty"`
}

// RunListDoc is the archive listing document. A paged listing (the
// service's GET /v1/runs) marks truncation and carries the cursor for
// the next page; a complete listing omits both fields, so existing
// documents are byte-identical.
type RunListDoc struct {
	Schema string     `json:"schema"`
	Runs   []RunEntry `json:"runs"`

	// Truncated is set when more entries follow this page; pass
	// NextAfter as ?after= to fetch them.
	Truncated bool `json:"truncated,omitempty"`
	NextAfter int  `json:"next_after,omitempty"`
}

// RunList converts archive index entries into the versioned listing
// document, preserving record order.
func RunList(entries []store.Entry) RunListDoc {
	doc := RunListDoc{Schema: RunsSchema, Runs: []RunEntry{}}
	for _, e := range entries {
		doc.Runs = append(doc.Runs, RunEntry{
			Seq: e.Seq, ID: e.ID, Fingerprint: e.Fingerprint, Name: e.Name,
			Label: e.Label,
		})
	}
	return doc
}

// RunPage converts one page of archive index entries into the listing
// document, recording the truncation marker and next cursor when more
// entries follow.
func RunPage(entries []store.Entry, more bool) RunListDoc {
	doc := RunList(entries)
	if more && len(entries) > 0 {
		doc.Truncated = true
		doc.NextAfter = entries[len(entries)-1].Seq
	}
	return doc
}

// CorpusEntry is the JSON shape of one labeled corpus scenario.
type CorpusEntry struct {
	ID    string `json:"id"`
	Label string `json:"label"`
}

// CorpusListDoc is the `osprof corpus list -json` document.
type CorpusListDoc struct {
	Schema    string        `json:"schema"`
	Scenarios []CorpusEntry `json:"scenarios"`
}

// CorpusList converts the corpus registry's scenario ids and labels
// into the versioned listing document, preserving registry order.
func CorpusList(ids []string, labels map[string]string) CorpusListDoc {
	doc := CorpusListDoc{Schema: CorpusSchema, Scenarios: []CorpusEntry{}}
	for _, id := range ids {
		doc.Scenarios = append(doc.Scenarios, CorpusEntry{ID: id, Label: labels[id]})
	}
	return doc
}

// BaselineEntry is the JSON shape of one blessed baseline pointer.
type BaselineEntry struct {
	Fingerprint string `json:"fingerprint"`
	Run         string `json:"run"`
}

// BaselineListDoc is the baseline listing document.
type BaselineListDoc struct {
	Schema    string          `json:"schema"`
	Baselines []BaselineEntry `json:"baselines"`
}

// BaselineList converts the archive's fingerprint -> run ID baseline
// map into the versioned listing document, sorted by fingerprint so
// the rendering is deterministic.
func BaselineList(baselines map[string]string) BaselineListDoc {
	doc := BaselineListDoc{Schema: BaselinesSchema, Baselines: []BaselineEntry{}}
	fps := make([]string, 0, len(baselines))
	for fp := range baselines {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		doc.Baselines = append(doc.Baselines, BaselineEntry{Fingerprint: fp, Run: baselines[fp]})
	}
	return doc
}

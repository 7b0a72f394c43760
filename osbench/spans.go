package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer's public function, as the traced run
// records it: the layer call's name, when it started and ended, the
// span that caused it and the request it belongs to.
type span struct {
	name       string
	req        int64
	parent     int32 // index into tracer.spans, -1 for a request root
	start, end time.Duration
}

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. It is used from one goroutine at a time: traced
// work runs sequentially, so spans of one request nest properly. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

// end closes the span h.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = time.Since(t.epoch)
}

// layerTime is one span name's accumulated self time.
type layerTime struct {
	calls int
	self  time.Duration
}

// mean self time per call, in the given unit.
func (l layerTime) mean(unit time.Duration) float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.self) / float64(l.calls) / float64(unit)
}

// selfTimes folds the spans under request roots named root (any root
// when root is "") into per-name self time: a span's duration minus
// the part of it its child spans cover. Children of one span run one
// after another, so their durations never overlap.
func (t *tracer) selfTimes(root string) map[string]layerTime {
	child := make([]time.Duration, len(t.spans))
	rootOf := make([]int32, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = int32(i)
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			rootOf[i] = rootOf[s.parent]
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if root != "" && t.spans[rootOf[i]].name != root {
			continue
		}
		lt := out[s.name]
		lt.calls++
		lt.self += s.end - s.start - child[i]
		out[s.name] = lt
	}
	return out
}

// roots returns the durations of the request-root spans named name.
func (t *tracer) roots(name string) latencies {
	var out latencies
	for _, s := range t.spans {
		if s.parent < 0 && s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write dumps the spans as tab-separated lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\treq\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayPairs is how many untraced/traced pairs of in-process replays
// a traced service run makes; the span overhead is their median.
const replayPairs = 3

// pairedReplays runs replay replayPairs times untraced and as often
// with a fresh tracer, alternating which side of each pair goes first,
// and returns the tracers and both sides' wall times.
func pairedReplays(seed int64, replay func(tr *tracer) (time.Duration, error)) (trs []*tracer, off, on []time.Duration, err error) {
	for p := 0; p < replayPairs; p++ {
		for side := 0; side < 2; side++ {
			var tr *tracer
			if (p+side+int(seed&1))%2 == 1 {
				tr = newTracer()
			}
			d, err := replay(tr)
			if err != nil {
				return nil, nil, nil, err
			}
			if tr != nil {
				trs, on = append(trs, tr), append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return trs, off, on, nil
}

// mergedSelf sums selfTimes(root) over several tracers.
func mergedSelf(trs []*tracer, root string) map[string]layerTime {
	out := make(map[string]layerTime)
	for _, tr := range trs {
		for name, lt := range tr.selfTimes(root) {
			m := out[name]
			m.calls += lt.calls
			m.self += lt.self
			out[name] = m
		}
	}
	return out
}

// mergedRoots concatenates roots(name) over several tracers.
func mergedRoots(trs []*tracer, name string) latencies {
	var out latencies
	for _, tr := range trs {
		out = append(out, tr.roots(name)...)
	}
	return out
}

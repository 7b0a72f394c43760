package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpDimensionGolden pins every surface of the derived op
// dimensions (layers, critical path, load bands) byte for byte:
// osprof-layers/v1, osprof-load/v1 plain and realtime, osprof-diff/v1
// of traced, contention and traced+load pairs, and the diff -layers,
// diff -load and full diff text. Every world is deterministic, so a
// mismatch is a behaviour change: regenerate testdata/opdim/ on
// purpose, from the command line recorded in each case.
func TestOpDimensionGolden(t *testing.T) {
	archive := t.TempDir()
	ids := func(flags []string, scenarios ...string) []string {
		t.Helper()
		results := recordJSON(t, archive, append(flags, scenarios...)...)
		var out []string
		for _, r := range results {
			out = append(out, r.RunID)
		}
		return out
	}
	traced := ids([]string{"-trace"}, "fig3/nopreempt", "fig3/preempt")
	healthy := ids([]string{"-trace"}, "ext2/randomread")[0]
	flaky := ids([]string{"-trace", "-inject", "disk-flaky"}, "ext2/randomread")[0]
	contention := ids(nil, "load/readzero-1x2", "load/readzero-4x2", "load/readzero-8x4")
	both := ids([]string{"-trace", "-load"}, "fig3/nopreempt", "fig3/preempt")

	cases := []struct {
		name string
		code int
		args []string
	}{
		{"trace-fig3-preempt.json", 0, []string{"trace", "-json", "fig3/preempt"}},
		{"trace-fig3-preempt.txt", 0, []string{"trace", "fig3/preempt"}},
		{"trace-randomread-disk-flaky.json", 0, []string{"trace", "-json", "-inject", "disk-flaky", "ext2/randomread"}},
		{"load-8x4.json", 0, []string{"load", "-json", "-archive", archive, contention[2]}},
		{"load-8x4.txt", 0, []string{"load", "-archive", archive, contention[2]}},
		{"load-8x4-realtime.json", 0, []string{"load", "-realtime", "-json", "-archive", archive, contention[2]}},
		{"load-8x4-realtime.txt", 0, []string{"load", "-realtime", "-archive", archive, contention[2]}},
		{"load-traced-fig3-preempt-realtime.json", 0, []string{"load", "-realtime", "-json", "-archive", archive, both[1]}},
		{"diff-fig3-traced.json", 1, []string{"diff", "-json", "-archive", archive, traced[0], traced[1]}},
		{"diff-fig3-traced-layers.txt", 1, []string{"diff", "-layers", "-archive", archive, traced[0], traced[1]}},
		{"diff-randomread-disk-flaky.json", 1, []string{"diff", "-json", "-archive", archive, healthy, flaky}},
		{"diff-randomread-disk-flaky-layers.txt", 1, []string{"diff", "-layers", "-archive", archive, healthy, flaky}},
		{"diff-load-1x2-4x2.json", 1, []string{"diff", "-json", "-archive", archive, contention[0], contention[1]}},
		{"diff-load-1x2-4x2-load.txt", 1, []string{"diff", "-load", "-archive", archive, contention[0], contention[1]}},
		{"diff-load-4x2-8x4.json", 1, []string{"diff", "-json", "-archive", archive, contention[1], contention[2]}},
		{"diff-load-4x2-8x4-load.txt", 1, []string{"diff", "-load", "-archive", archive, contention[1], contention[2]}},
		{"diff-fig3-traced-load.json", 1, []string{"diff", "-json", "-archive", archive, both[0], both[1]}},
		{"diff-fig3-traced-load.txt", 1, []string{"diff", "-archive", archive, both[0], both[1]}},
		{"diff-fig3-traced-load-layers.txt", 1, []string{"diff", "-layers", "-archive", archive, both[0], both[1]}},
		{"diff-fig3-traced-load-load.txt", 1, []string{"diff", "-load", "-archive", archive, both[0], both[1]}},
	}
	for _, c := range cases {
		code, out, errOut := exec(t, c.args...)
		if code != c.code {
			t.Errorf("%s: exit=%d, want %d; stderr=%s", c.name, code, c.code, errOut)
		}
		path := filepath.Join("testdata", "opdim", c.name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s differs from %s (osprof %s):\n%s", c.name, path,
				strings.Join(c.args, " "), firstDiff(string(want), out))
		}
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "identical lines, different bytes"
}

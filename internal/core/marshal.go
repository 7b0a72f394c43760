package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a line-oriented text serialization for profile
// sets, the analog of the paper's /proc reporting interface (§4): the
// kernel-side library exports raw bucket counts, and user-space tools
// parse them for analysis and plotting.
//
// Format:
//
//	osprof-set v1 <name> r=<r>
//	op <name> count=<n> total=<n> min=<n> max=<n>
//	b <bucket> <count>
//	...
//	end
//
// Operation names are quoted with %q to survive spaces.

const setHeader = "osprof-set v1"

// WriteSet serializes s to w.
func WriteSet(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	writeSetAs(bw, s, setHeader)
	return bw.Flush()
}

// writeSetAs buffers s into bw under the given header keyword; the run
// envelope uses setHeader, the delta envelope uses deltaSetHeader
// (identical body grammar, but a delta block must not be mistaken for
// a cumulative set). The caller flushes bw, which reports any write
// error.
func writeSetAs(bw *bufio.Writer, s *Set, header string) {
	fmt.Fprintf(bw, "%s %q r=%d\n", header, s.Name, s.R)
	for _, p := range s.Profiles() {
		fmt.Fprintf(bw, "op %q count=%d total=%d min=%d max=%d\n",
			p.Op, p.Count, p.Total, p.Min, p.Max)
		for b, c := range p.Buckets {
			if c != 0 {
				fmt.Fprintf(bw, "b %d %d\n", b, c)
			}
		}
	}
	fmt.Fprintln(bw, "end")
}

// ReadSet parses a profile set serialized by WriteSet and validates
// the bucket checksums.
func ReadSet(r io.Reader) (*Set, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("osprof: empty input")
	}
	lineno := 1
	s, err := readSet(sc.Text(), sc, &lineno)
	if err != nil {
		return nil, err
	}
	return s, rejectTrailing(sc, &lineno)
}

// newScanner builds the line scanner shared by ReadSet and ReadRun.
// The initial buffer is sized for a typical envelope line (tens of
// bytes); bufio.Scanner grows it on demand up to the 4 MiB cap, so
// long lines still parse while the steady-state ingest path does not
// pay a 64 KiB allocation per envelope.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), 1<<22)
	return sc
}

// rejectTrailing drains sc after a terminating "end" marker, rejecting
// anything but blank lines.
func rejectTrailing(sc *bufio.Scanner, lineno *int) error {
	for sc.Scan() {
		*lineno++
		if strings.TrimSpace(sc.Text()) != "" {
			return fmt.Errorf("osprof: line %d: trailing data %q", *lineno, sc.Text())
		}
	}
	return sc.Err()
}

// readSet parses a set whose header line has already been scanned; it
// consumes lines from sc through the "end" marker. ReadSet and ReadRun
// (the versioned run envelope) share it.
func readSet(line string, sc *bufio.Scanner, lineno *int) (*Set, error) {
	return readSetAs(line, sc, lineno, setHeader)
}

// readSetAs is readSet with an explicit header keyword, shared with
// the delta-envelope parser.
func readSetAs(line string, sc *bufio.Scanner, lineno *int, header string) (*Set, error) {
	if !strings.HasPrefix(line, header+" ") {
		return nil, fmt.Errorf("osprof: bad header %q", line)
	}
	rest := strings.TrimPrefix(line, header+" ")
	name, rest, err := parseQuoted(rest)
	if err != nil {
		return nil, fmt.Errorf("osprof: header name: %w", err)
	}
	res, err := parseKV(strings.TrimSpace(rest), "r")
	if err != nil {
		return nil, fmt.Errorf("osprof: header resolution: %w", err)
	}
	s := NewSetR(name, int(res))

	var cur *Profile
	sawEnd := false
	for !sawEnd && sc.Scan() {
		*lineno++
		line := sc.Text()
		switch {
		case line == "end":
			sawEnd = true
		case strings.HasPrefix(line, "op "):
			op, rest, err := parseQuoted(strings.TrimPrefix(line, "op "))
			if err != nil {
				return nil, fmt.Errorf("osprof: line %d: %w", *lineno, err)
			}
			cur = s.Get(op)
			var vals [4]uint64
			for i, key := range opKeys {
				var field string
				field, rest = nextField(rest)
				if field == "" {
					return nil, fmt.Errorf("osprof: line %d: want 4 op fields, got %d",
						*lineno, i)
				}
				v, err := parseKV(field, key)
				if err != nil {
					return nil, fmt.Errorf("osprof: line %d: %w", *lineno, err)
				}
				vals[i] = v
			}
			if f, _ := nextField(rest); f != "" {
				return nil, fmt.Errorf("osprof: line %d: trailing op field %q", *lineno, f)
			}
			cur.Count, cur.Total, cur.Min, cur.Max = vals[0], vals[1], vals[2], vals[3]
		case strings.HasPrefix(line, "b "):
			if cur == nil {
				return nil, fmt.Errorf("osprof: line %d: bucket before op", *lineno)
			}
			bs, brest := nextField(line[2:])
			cs, brest := nextField(brest)
			if cs == "" {
				return nil, fmt.Errorf("osprof: line %d: want \"b <bucket> <count>\", got %q",
					*lineno, line)
			}
			if f, _ := nextField(brest); f != "" {
				return nil, fmt.Errorf("osprof: line %d: trailing bucket field %q", *lineno, f)
			}
			b, err := strconv.Atoi(bs)
			if err != nil {
				return nil, fmt.Errorf("osprof: line %d: bucket: %w", *lineno, err)
			}
			c, err := strconv.ParseUint(cs, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("osprof: line %d: bucket count: %w", *lineno, err)
			}
			if b < 0 || b >= len(cur.Buckets) {
				return nil, fmt.Errorf("osprof: line %d: bucket %d out of range", *lineno, b)
			}
			cur.Buckets[b] = c
		case strings.TrimSpace(line) == "":
			// ignore blank lines
		default:
			return nil, fmt.Errorf("osprof: line %d: unrecognized %q", *lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEnd {
		return nil, fmt.Errorf("osprof: truncated input (no end marker)")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// opKeys is the fixed field order of an op line; hoisted so the parser
// does not allocate the slice per line.
var opKeys = [...]string{"count", "total", "min", "max"}

// nextField returns the first space-delimited field of in and the
// remainder, skipping leading whitespace — strings.Fields without the
// per-line slice allocation.
func nextField(in string) (field, rest string) {
	in = strings.TrimLeft(in, " \t")
	i := strings.IndexAny(in, " \t")
	if i < 0 {
		return in, ""
	}
	return in[:i], in[i:]
}

// parseQuoted extracts a leading %q-quoted string and returns the rest.
func parseQuoted(in string) (val, rest string, err error) {
	if len(in) == 0 || in[0] != '"' {
		return "", "", fmt.Errorf("expected quoted string in %q", in)
	}
	for i := 1; i < len(in); i++ {
		if in[i] == '\\' {
			i++
			continue
		}
		if in[i] == '"' {
			val, err = strconv.Unquote(in[:i+1])
			return val, in[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", in)
}

// parseKV parses "key=value" with the expected key.
func parseKV(field, key string) (uint64, error) {
	pre := key + "="
	if !strings.HasPrefix(field, pre) {
		return 0, fmt.Errorf("expected %s=..., got %q", key, field)
	}
	return strconv.ParseUint(strings.TrimPrefix(field, pre), 10, 64)
}

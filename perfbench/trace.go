package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
)

// span is one traced call: its name, the event (trace) it served, the span
// that caused it (0 for a root) and its interval in ns since origin.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct{ spans []span }

// begin opens a span and returns its ID (1-based).
func (t *tracer) begin(name string, trace uint64, parent int) int {
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans) + 1, Parent: parent, Start: now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = now() }

// around runs fn inside a span.
func (t *tracer) around(name string, trace uint64, parent int, fn func()) {
	id := t.begin(name, trace, parent)
	fn()
	t.end(id)
}

// selfTimes returns each span name's total self time: every span's
// duration minus the part of it that its children cover. Children may
// overlap each other (concurrent callees), so the covered part is the
// length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals within [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerOf maps a span name to its layer: the part before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the engine.
// Spans of one run of a row share Run; Parent is the span that caused it
// (-1 for a root). Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the benchmark ends. It is used from
// one goroutine, so the innermost open span is the parent of the next. A
// nil tracer records nothing, which is how untraced passes run the same
// code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRun starts a new run identifier for the spans that follow.
func (t *tracer) newRun() {
	if t != nil {
		t.run++
	}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, end := 0.0, lo
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

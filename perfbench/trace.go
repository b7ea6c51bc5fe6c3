package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code, around its calls into
// each layer's public functions: a span names the call, the op it belongs
// to, and the span that caused it. Every op's spans share the op's id.
// Spans live in memory and are written out when the run ends.

// spanRec is one finished span.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 for a root span
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's trace epoch
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"` // Dur minus the time child spans cover
}

// spanAgg accumulates every span of one name, kept in the dump or not.
type spanAgg struct {
	name  string
	count int64
	total int64 // ns
	self  int64 // ns
}

type openSpan struct {
	id, parent uint64
	name       string
	start      time.Time
	child      int64 // ns covered by finished children
}

// spanIDs and opIDs are shared by all tracers of a run, so ids are unique
// across client goroutines.
var spanIDs, opIDs atomic.Uint64

// tracer records the spans of one goroutine. Spans nest strictly, so an
// open-span stack gives each span its parent and its children's coverage.
// A nil *tracer records nothing: the untraced run passes nil.
type tracer struct {
	epoch   time.Time
	op      uint64
	stack   []openSpan
	kept    []spanRec // preallocated; spans past its capacity are only aggregated
	dropped int64
	aggs    []spanAgg
}

func newTracer(epoch time.Time, keep int) *tracer {
	return &tracer{epoch: epoch, stack: make([]openSpan, 0, 8), kept: make([]spanRec, 0, keep), aggs: make([]spanAgg, 0, 16)}
}

// beginOp starts a root span under a fresh op id.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op = opIDs.Add(1)
	t.begin(name)
}

// begin starts a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, openSpan{id: spanIDs.Add(1), parent: parent, name: name, start: time.Now()})
}

// end finishes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := int64(now.Sub(s.start))
	self := dur - s.child
	if n > 0 {
		t.stack[n-1].child += dur
	}
	t.aggregate(s.name, dur, self)
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, spanRec{ID: s.id, Parent: s.parent, Op: t.op, Name: s.name,
			Start: int64(s.start.Sub(t.epoch)), Dur: dur, Self: self})
	} else {
		t.dropped++
	}
}

func (t *tracer) aggregate(name string, dur, self int64) {
	for i := range t.aggs {
		if t.aggs[i].name == name {
			a := &t.aggs[i]
			a.count++
			a.total += dur
			a.self += self
			return
		}
	}
	t.aggs = append(t.aggs, spanAgg{name: name, count: 1, total: dur, self: self})
}

// traceSummary merges the tracers of one run.
type traceSummary struct {
	aggs    map[string]spanAgg
	spans   []spanRec
	dropped int64
}

func mergeTracers(ts ...*tracer) traceSummary {
	sum := traceSummary{aggs: make(map[string]spanAgg)}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, a := range t.aggs {
			m := sum.aggs[a.name]
			m.name = a.name
			m.count += a.count
			m.total += a.total
			m.self += a.self
			sum.aggs[a.name] = m
		}
		sum.spans = append(sum.spans, t.kept...)
		sum.dropped += t.dropped
	}
	sort.Slice(sum.spans, func(i, j int) bool { return sum.spans[i].Start < sum.spans[j].Start })
	return sum
}

// meanSelf is the mean self time in ns of the spans named name, or 0.
func (s traceSummary) meanSelf(name string) float64 {
	a := s.aggs[name]
	return ratio(float64(a.self), float64(a.count))
}

// writeTable prints the per-layer self-time table.
func (s traceSummary) writeTable(w io.Writer) {
	names := make([]string, 0, len(s.aggs))
	for n := range s.aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-22s %9s %12s %12s %12s\n", "span", "count", "mean_us", "self_us", "self_total_ms")
	for _, n := range names {
		a := s.aggs[n]
		fmt.Fprintf(w, "  %-22s %9d %12.3f %12.3f %12.3f\n", n, a.count,
			ratio(float64(a.total), float64(a.count))/1e3,
			ratio(float64(a.self), float64(a.count))/1e3,
			float64(a.self)/1e6)
	}
}

// writeDump writes every kept span as one JSON object per line.
func (s traceSummary) writeDump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

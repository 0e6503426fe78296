package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"starcdn/internal/sim"
)

// interval is a span's extent, as offsets from its tracer's origin.
type interval struct{ Start, End time.Duration }

func (iv interval) dur() time.Duration { return iv.End - iv.Start }

// span is one timed call into a layer. Parent is the index of the span that
// caused it, or -1 for a root.
type span struct {
	Name   string
	Parent int
	interval
}

// tracer keeps the spans of one traced run in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one pointer test per
// span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, interval: interval{Start: t.now()}})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	t.spans[id].End = t.now()
	return t.spans[id].dur().Seconds()
}

// record adds a finished span that started at start and lasted d.
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	iv := interval{Start: start.Sub(t.origin)}
	iv.End = iv.Start + d
	t.spans = append(t.spans, span{Name: name, Parent: parent, interval: iv})
	return len(t.spans) - 1
}

// medianOf returns the median duration, in seconds, of the spans called
// name (0 when there are none).
func (t *tracer) medianOf(name string) float64 {
	if t == nil {
		return 0
	}
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur().Seconds())
		}
	}
	return median(ds)
}

// children returns the extents of span id's direct children.
func (t *tracer) children(id int) []interval {
	var out []interval
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s.interval)
		}
	}
	return out
}

// write prints every span with its self time, one line each, in start
// order.
func (t *tracer) write(w io.Writer) {
	for i, s := range t.spans {
		parent := "-"
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		fmt.Fprintf(w, "span %d %s parent=%s start=%.6fs dur=%.6fs self=%.6fs\n",
			i, s.Name, parent, s.Start.Seconds(), s.dur().Seconds(),
			selfTime(s.interval, t.children(i)).Seconds())
	}
}

// selfTime is parent's duration minus the part of it that the children
// cover. Overlapping children are counted once, and the parts of a child
// outside parent are ignored.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// timedPolicy wraps a sim.Policy and records one span per Serve call, the
// child of the enclosing sim.Run span. The request's index in the trace is
// its span's identifier: Serve calls arrive in trace order.
type timedPolicy struct {
	sim.Policy
	t     *tracer
	serve []interval
}

func newTimedPolicy(p sim.Policy, t *tracer, requests int) *timedPolicy {
	return &timedPolicy{Policy: p, t: t, serve: make([]interval, 0, requests)}
}

// Serve implements sim.Policy.
func (p *timedPolicy) Serve(ctx *sim.ServeContext) sim.Outcome {
	start := p.t.now()
	out := p.Policy.Serve(ctx)
	p.serve = append(p.serve, interval{Start: start, End: p.t.now()})
	return out
}

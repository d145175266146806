package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the run's epoch. Spans of one operation share Req
// (the operation index); Parent is 0 for an operation's root.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Tag    string  `json:"tag,omitempty"` // hit/miss, model shape, …
	Val    float64 `json:"val,omitempty"` // a count the span carries (simulated seconds, simreps)
	Self   int64   `json:"self_ns"`       // filled by selfTimes
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. One tracer per goroutine: it takes no
// locks. A nil *tracer records nothing, which is how the untraced path
// runs the same code.
type tracer struct {
	epoch time.Time
	base  int64 // ID namespace, so merged tracers never collide
	next  int64
	spans []span
}

func newTracer(epoch time.Time, namespace int64) *tracer {
	return &tracer{epoch: epoch, base: namespace << 40}
}

// begin opens a span; end closes it. Spans are stored when they end.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(req, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.next++
	return openSpan{t: t, s: span{ID: t.base + t.next, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch))}}
}

// id is the span's ID, for children to name as their parent (0 when
// untraced).
func (o *openSpan) id() int64 { return o.s.ID }

func (o *openSpan) end() { o.endTag("", 0) }

func (o *openSpan) endTag(tag string, val float64) {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.Tag, o.s.Val = tag, val
	o.t.spans = append(o.t.spans, o.s)
}

// add stores a span measured elsewhere (a server-side interval read off
// a job's trace timeline).
func (t *tracer) add(req, parent int64, name string, from, to time.Time) {
	if t == nil {
		return
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.base + t.next, Parent: parent, Req: req, Name: name,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch))})
}

// selfTimes sets every span's Self: its duration minus the part of its
// interval covered by its children (overlapping children, as under a
// parallel fan-out, are counted once). Children outside the parent's
// interval count only where they overlap it.
func selfTimes(spans []span) {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans dumps spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// SpanID names one span within its trace. The root span is always 0; NoSpan
// marks "no parent" (only the root has it).
type SpanID int

// NoSpan is the parent of a trace's root span.
const NoSpan SpanID = -1

// Span is one timed region of a request: a name, its start offset from the
// trace's beginning, its duration, and its parent span. Spans form a tree —
// the request's critical path is readable straight off the dump.
type Span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Parent SpanID        `json:"parent"`
}

// Trace is the span tree of one request. A Trace may be appended to from
// several goroutines (a router's per-shard fan-out), so Start/End take an
// internal lock; traces are request-scoped and short-lived, so the lock is
// uncontended in practice.
type Trace struct {
	mu    sync.Mutex
	name  string
	begin time.Time
	spans []Span
	done  bool
}

// NewTrace opens a trace whose root span is named name and starts now.
func NewTrace(name string) *Trace {
	return &Trace{
		name:  name,
		begin: time.Now(),
		// Room for a request's usual handful of spans: one allocation, not a
		// growth per Start.
		spans: append(make([]Span, 0, 8), Span{Name: name, Parent: NoSpan}),
	}
}

// Name returns the root span's name.
func (t *Trace) Name() string { return t.name }

// Start opens a child span under parent (use 0 for the root) and returns its
// id. Close it with End. A nil Trace ignores Start/End/Finish, so optional
// tracing costs call sites no branches.
func (t *Trace) Start(name string, parent SpanID) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.begin), Parent: parent})
	return id
}

// End closes span id, fixing its duration. Ending a span twice keeps the
// first duration.
func (t *Trace) End(id SpanID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id <= 0 || int(id) >= len(t.spans) || t.spans[id].Dur != 0 {
		return
	}
	t.spans[id].Dur = time.Since(t.begin) - t.spans[id].Start
}

// Finish closes the root span; the trace's Duration is fixed from here on.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.spans[0].Dur = time.Since(t.begin)
		t.done = true
	}
}

// Duration returns the root span's duration (elapsed time, if not yet
// finished).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.spans[0].Dur
	}
	return time.Since(t.begin)
}

// Spans returns a copy of the span list, root first.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceJSON is the dump layout: begin timestamp plus the span tree.
type traceJSON struct {
	Name  string    `json:"name"`
	Begin time.Time `json:"begin"`
	Spans []Span    `json:"spans"`
}

// MarshalJSON dumps the trace — the format the debug endpoint serves.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.Marshal(traceJSON{Name: t.name, Begin: t.begin, Spans: t.spans})
}

// Tree renders the span tree as indented text, children in start order —
// what haquery -trace prints for the slowest query.
func (t *Trace) Tree() string {
	spans := t.Spans()
	children := make([][]SpanID, len(spans))
	for id := 1; id < len(spans); id++ {
		p := spans[id].Parent
		if p < 0 || int(p) >= len(spans) {
			p = 0
		}
		children[p] = append(children[p], SpanID(id))
	}
	var b strings.Builder
	var walk func(id SpanID, depth int)
	walk = func(id SpanID, depth int) {
		sp := spans[id]
		fmt.Fprintf(&b, "%s%-*s %8v  +%v\n",
			strings.Repeat("  ", depth), 24-2*depth, sp.Name,
			sp.Dur.Round(time.Microsecond), sp.Start.Round(time.Microsecond))
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

// Tracer keeps the last capacity finished traces of one component in a ring,
// and separately pins the slowest trace seen — the one a tail-latency
// investigation wants. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	ring    []*Trace
	next    int
	total   int64
	slowest *Trace
}

// NewTracer returns a Tracer keeping the last capacity traces (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Trace, capacity)}
}

// Add finishes t (if the caller has not) and records it.
func (tz *Tracer) Add(t *Trace) {
	t.Finish()
	tz.mu.Lock()
	defer tz.mu.Unlock()
	tz.ring[tz.next] = t
	tz.next = (tz.next + 1) % len(tz.ring)
	tz.total++
	if tz.slowest == nil || t.Duration() > tz.slowest.Duration() {
		tz.slowest = t
	}
}

// Slowest returns the slowest trace recorded so far (nil when none).
func (tz *Tracer) Slowest() *Trace {
	tz.mu.Lock()
	defer tz.mu.Unlock()
	return tz.slowest
}

// Traces returns the retained traces, oldest first.
func (tz *Tracer) Traces() []*Trace {
	tz.mu.Lock()
	defer tz.mu.Unlock()
	var out []*Trace
	for i := 0; i < len(tz.ring); i++ {
		if t := tz.ring[(tz.next+i)%len(tz.ring)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Total returns how many traces have been recorded (including evicted ones).
func (tz *Tracer) Total() int64 {
	tz.mu.Lock()
	defer tz.mu.Unlock()
	return tz.total
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's epoch. Spans of one sampled request share Request. A
// replayed span was measured after the live request by repeating that step
// on its own (same inputs, same child process); its duration is measured,
// its position is rebuilt from the request's known shape: route, encode,
// the shard legs side by side, decode.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add stores a span and returns its id.
func (r *recorder) add(parent, request int, name string, start, end int64, replay bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: end, Replay: replay})
	return id
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover. Children are clipped to the parent and
// overlapping children (parallel shard legs) are counted once, so a span's
// self time plus the union of its children always equals its duration and is
// never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// [start, end].
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

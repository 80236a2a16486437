package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 (requests served, retries,
// bytes). All methods are lock-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 (pool occupancy, open connections).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (use negative d to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of counters, gauges, and histograms that
// any component hangs its instruments on. Get-or-create lookups take a
// read-mostly lock; callers on hot paths should look their instrument up
// once and keep the pointer — recording through it is lock-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// HistSummary is one histogram's exported view: the full snapshot plus
// precomputed percentiles, so JSON consumers need no bucket math.
type HistSummary struct {
	Count int64    `json:"count"`
	Sum   int64    `json:"sum"`
	Mean  float64  `json:"mean"`
	P50   int64    `json:"p50"`
	P95   int64    `json:"p95"`
	P99   int64    `json:"p99"`
	Max   int64    `json:"max"`
	Hist  []Bucket `json:"buckets,omitempty"`
}

// Summarize builds the exported view of a snapshot.
func Summarize(s HistSnapshot) HistSummary {
	return HistSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.P50(),
		P95:   s.P95(),
		P99:   s.P99(),
		Max:   s.Max,
		Hist:  s.Buckets,
	}
}

// RegistrySnapshot is a point-in-time copy of every instrument in a
// registry, JSON-encodable for the debug endpoint.
type RegistrySnapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot captures every instrument. Counters and histograms are read
// atomically per instrument (not fenced across instruments), which is the
// right consistency for monitoring.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSummary, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = Summarize(h.Snapshot())
	}
	return s
}

// JSON encodes the snapshot, indented — what the debug endpoint serves.
func (s RegistrySnapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // maps of plain values cannot fail to encode
		return []byte("{}")
	}
	return append(b, '\n')
}

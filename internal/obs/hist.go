// Package obs is the dependency-free observability layer of the serving
// stack (internal/lsm, internal/server, internal/client): lock-free
// log-spaced latency histograms, request-scoped trace spans, and a registry
// that components hang counters, gauges, and histograms on. The MapReduce
// runtime does not use it: the offline pipeline reports through
// mapreduce.Metrics, and fence_test.go keeps this package out of
// internal/mapreduce and internal/mrjoin. It depends only on the stdlib.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram's buckets are log-spaced: values below subCount are exact,
// and above that each power of two is split into subCount sub-buckets, so
// the relative error of any recorded value is at most 1/subCount (~6%).
// This is the usual HDR-style layout, sized so one histogram is ~8 KB and
// Record is one atomic add with no locks — cheap enough to sit on the
// per-request serving path.
const (
	subBits  = 4
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: index(maxInt64) is
	// (63-subBits)*subCount + (2*subCount-1) = (65-subBits)*subCount - 1.
	numBuckets = (65 - subBits) * subCount
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0 so a buggy caller cannot corrupt the layout.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	shift := uint(bits.Len64(u) - 1 - subBits)
	return int(shift)*subCount + int(u>>shift)
}

// bucketLower returns the smallest value mapping to bucket i — the bucket
// boundaries tests pin down.
func bucketLower(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := uint(i/subCount - 1)
	m := int64(i - int(shift)*subCount)
	return m << shift
}

// Histogram is a lock-free fixed-bucket histogram of int64 values
// (typically latencies in nanoseconds, but any non-negative magnitude —
// distance computations, nodes visited — fits). Record never allocates and
// never blocks; Snapshot is a consistent-enough read for monitoring (counts
// are individually atomic, not globally fenced). The zero value is NOT
// usable; create with NewHistogram.
type Histogram struct {
	buckets []atomic.Uint64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Uint64, numBuckets)}
}

// Record adds one value.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordSince records the nanoseconds elapsed since t0.
func (h *Histogram) RecordSince(t0 time.Time) {
	h.Record(time.Since(t0).Nanoseconds())
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of the recorded values, without the bucket list a
// Snapshot allocates.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot captures the histogram's current state. Snapshots are plain
// values: mergeable, JSON-encodable, and independent of the live histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Low: bucketLower(i), Count: n})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: Low is the smallest value the
// bucket holds, Count how many values landed in it.
type Bucket struct {
	Low   int64  `json:"low"`
	Count uint64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram. The zero value is an
// empty snapshot; Merge and the quantile accessors work on it directly.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Merge folds o into s — the shard/worker aggregation primitive. Bucket
// lists stay sorted by Low.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(o.Buckets) == 0 {
		return
	}
	merged := make([]Bucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Low < o.Buckets[j].Low):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Low < s.Buckets[i].Low:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, Bucket{Low: s.Buckets[i].Low, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
}

// Quantile returns the value at quantile q in [0,1]: the lower bound of the
// bucket holding the ceil(q*count)-th value (exact for values < subCount).
// An empty snapshot returns 0; q outside [0,1] clamps.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += int64(b.Count)
		if seen > rank {
			return b.Low
		}
	}
	return s.Max
}

// Mean returns the average recorded value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// P50, P95, P99 are the percentile accessors monitoring dashboards ask for.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }
func (s HistSnapshot) P95() int64 { return s.Quantile(0.95) }
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }

package obs

import (
	"math"
	"testing"
)

// TestBucketBoundaries pins the bucket layout down: indexes are monotone in
// the value, lower bounds invert the index, and small values are exact.
func TestBucketBoundaries(t *testing.T) {
	// Small values get their own bucket.
	for v := int64(0); v < subCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact", v, got)
		}
		if got := bucketLower(int(v)); got != v {
			t.Fatalf("bucketLower(%d) = %d", v, got)
		}
	}
	// Every bucket's lower bound maps back to that bucket, and bounds are
	// strictly increasing.
	maxIdx := bucketIndex(math.MaxInt64)
	prev := int64(-1)
	for i := 0; i <= maxIdx; i++ {
		lo := bucketLower(i)
		if lo <= prev {
			t.Fatalf("bucketLower not increasing at %d: %d after %d", i, lo, prev)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)) = %d", i, got)
		}
		prev = lo
	}
	if maxIdx >= numBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d, out of %d buckets", maxIdx, numBuckets)
	}
	// Index is monotone across boundaries and the relative error is bounded
	// by the sub-bucket resolution.
	for _, v := range []int64{1, 15, 16, 17, 31, 32, 1000, 1e6, 1e9, 1e12, math.MaxInt64} {
		i := bucketIndex(v)
		lo := bucketLower(i)
		if lo > v {
			t.Fatalf("value %d below its bucket lower bound %d", v, lo)
		}
		if i < maxIdx {
			if hi := bucketLower(i + 1); hi <= v {
				t.Fatalf("value %d at index %d but next bucket starts at %d", v, i, hi)
			}
		}
		if v >= subCount && float64(v-lo)/float64(v) > 1.0/subCount {
			t.Fatalf("value %d bucket lower %d: relative error above 1/%d", v, lo, subCount)
		}
	}
}

// TestQuantileEdgeCases: empty (k=0) and single-value (k=1) histograms.
func TestQuantileEdgeCases(t *testing.T) {
	empty := NewHistogram().Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}
	if empty.Mean() != 0 || empty.Max != 0 {
		t.Fatalf("empty snapshot: mean %v max %d", empty.Mean(), empty.Max)
	}

	one := NewHistogram()
	one.Record(7) // exact bucket: below subCount
	s := one.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("single-value Quantile(%v) = %d, want 7", q, got)
		}
	}
	if s.Count != 1 || s.Sum != 7 || s.Max != 7 {
		t.Fatalf("single-value snapshot: %+v", s)
	}
}

func TestHistogramRecordAndQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000: p50 must land within one bucket of 500, p99 near 990.
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 || s.Max != 1000 {
		t.Fatalf("snapshot totals: %+v", s)
	}
	check := func(q float64, want int64) {
		got := s.Quantile(q)
		lo := want - want/subCount - 1
		if got < lo || got > want {
			t.Fatalf("Quantile(%v) = %d, want within [%d,%d]", q, got, lo, want)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if got := s.Quantile(1); got < 1000-1000/subCount || got > 1000 {
		t.Fatalf("Quantile(1) = %d", got)
	}
	// Negative records clamp to 0 instead of corrupting the layout.
	h.Record(-5)
	if got := h.Snapshot().Quantile(0); got != 0 {
		t.Fatalf("after negative record Quantile(0) = %d", got)
	}
}

// TestHistogramSumIsSnapshotSum: Sum and Count read the totals a Snapshot
// reports, and neither allocates — a stats read takes them per frame.
func TestHistogramSumIsSnapshotSum(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 3000; v += 7 {
		h.Record(v * v)
		if s := h.Snapshot(); h.Sum() != s.Sum || h.Count() != s.Count {
			t.Fatalf("Sum %d Count %d, snapshot %+v", h.Sum(), h.Count(), s)
		}
	}
	var sum int64
	if allocs := testing.AllocsPerRun(100, func() { sum += h.Sum() + h.Count() }); allocs != 0 {
		t.Fatalf("Sum and Count allocate %.1f times a read", allocs)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := int64(0); v < 100; v++ {
		a.Record(v)
	}
	for v := int64(1000); v < 1100; v++ {
		b.Record(v)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 200 {
		t.Fatalf("merged count %d", sa.Count)
	}
	if sa.Max != 1099 {
		t.Fatalf("merged max %d", sa.Max)
	}
	wantSum := int64(99*100/2) + int64(1000+1099)*100/2
	if sa.Sum != wantSum {
		t.Fatalf("merged sum %d, want %d", sa.Sum, wantSum)
	}
	// Medians of the merged distribution straddle the two halves.
	if p25 := sa.Quantile(0.25); p25 >= 100 {
		t.Fatalf("merged p25 %d not from the low half", p25)
	}
	if p75 := sa.Quantile(0.75); p75 < 1000-1000/subCount {
		t.Fatalf("merged p75 %d not from the high half", p75)
	}
	// Buckets stay sorted and deduplicated.
	for i := 1; i < len(sa.Buckets); i++ {
		if sa.Buckets[i].Low <= sa.Buckets[i-1].Low {
			t.Fatalf("merged buckets unsorted at %d", i)
		}
	}
	// Merging identical histograms doubles counts bucket for bucket.
	sc := a.Snapshot()
	sc.Merge(a.Snapshot())
	if sc.Count != 200 || len(sc.Buckets) != len(a.Snapshot().Buckets) {
		t.Fatalf("self-merge: %+v", sc)
	}
	// Merging an empty snapshot is the identity.
	before := len(sa.Buckets)
	sa.Merge(HistSnapshot{})
	if sa.Count != 200 || len(sa.Buckets) != before {
		t.Fatalf("empty merge changed snapshot: %+v", sa)
	}
}

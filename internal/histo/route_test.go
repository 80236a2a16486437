package histo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// randPivots draws sorted pivots from a random sample, optionally forcing
// duplicates — the shapes Pivots can emit on small or skewed samples.
func randPivots(rng *rand.Rand, bits, parts int, dup bool) []bitvec.Code {
	sample := make([]bitvec.Code, 64)
	for i := range sample {
		sample[i] = bitvec.Rand(rng, bits)
	}
	pivots := Pivots(sample, parts)
	if dup && len(pivots) > 1 {
		pivots[rng.Intn(len(pivots)-1)+1] = pivots[0].Clone()
		gray.Sort(pivots, nil)
	}
	return pivots
}

// TestRouteCoversAllMatches is the routing soundness property: every code
// within Hamming distance h of the query must live in a routed partition.
func TestRouteCoversAllMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 200; trial++ {
		bits := []int{8, 16, 32, 64, 100}[trial%5]
		parts := 1 + rng.Intn(9)
		pivots := randPivots(rng, bits, parts, trial%3 == 0)
		ranges := NewRanges(bits, pivots)
		h := rng.Intn(5)
		q := bitvec.Rand(rng, bits)
		routed := ranges.Route(nil, q, h)
		onRoute := make(map[int]bool, len(routed))
		for _, m := range routed {
			onRoute[m] = true
		}
		// Probe with near codes (guaranteed within h) and random codes.
		for probe := 0; probe < 50; probe++ {
			c := q.Clone()
			for f := 0; f < rng.Intn(h+1); f++ {
				c.FlipBit(rng.Intn(bits))
			}
			if !onRoute[PartitionID(pivots, c)] {
				t.Fatalf("bits=%d parts=%d h=%d: code at distance %d lives in unrouted partition %d (routed %v)",
					bits, parts, h, q.Distance(c), PartitionID(pivots, c), routed)
			}
		}
		for probe := 0; probe < 50; probe++ {
			c := bitvec.Rand(rng, bits)
			if q.Distance(c) <= h && !onRoute[PartitionID(pivots, c)] {
				t.Fatalf("random code within h=%d in unrouted partition %d", h, PartitionID(pivots, c))
			}
		}
	}
}

// TestRouteMinDistanceIsLowerBound checks the per-partition Gray-range lower
// bound through Route: a code's partition must be routed at any threshold
// that reaches the code, so the bound never exceeds a member's distance.
func TestRouteMinDistanceIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	bits := 24
	pivots := randPivots(rng, bits, 6, false)
	ranges := NewRanges(bits, pivots)
	var routed []int
	for trial := 0; trial < 2000; trial++ {
		c := bitvec.Rand(rng, bits)
		q := bitvec.Rand(rng, bits)
		m, d := PartitionID(pivots, c), q.Distance(c)
		if routed = ranges.Route(routed[:0], q, d); !slices.Contains(routed, m) {
			t.Fatalf("partition %d holds a code at distance %d but is not routed at h=%d (routed %v)", m, d, d, routed)
		}
	}
}

// TestRouteEmptyAndDuplicatePivots: duplicate pivots yield provably empty
// partitions that must be pruned, and an empty pivot list routes everything
// to the single partition.
func TestRouteEmptyAndDuplicatePivots(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	q := bitvec.Rand(rng, 16)
	if got := NewRanges(16, nil).Route(nil, q, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("no pivots: routed %v, want [0]", got)
	}
	p := bitvec.Rand(rng, 16)
	dup := []bitvec.Code{p, p.Clone(), p.Clone()}
	ranges := NewRanges(16, dup)
	routed := ranges.Route(nil, q, 16)
	for _, m := range routed {
		if m == 1 || m == 2 {
			t.Fatalf("routed empty partition %d", m)
		}
	}
	// Even at the maximum threshold every code is still covered.
	for trial := 0; trial < 200; trial++ {
		c := bitvec.Rand(rng, 16)
		id := PartitionID(dup, c)
		found := false
		for _, m := range routed {
			if m == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("code's partition %d missing from %v", id, routed)
		}
	}
}

// TestDecRank: decrement agrees with rank arithmetic via the Gray transform.
func TestDecRank(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	if _, ok := decRank(bitvec.New(20)); ok {
		t.Fatal("rank 0 must have no predecessor")
	}
	for _, bits := range []int{5, 16, 64, 65, 130} {
		for trial := 0; trial < 200; trial++ {
			r := bitvec.Rand(rng, bits)
			if r.OnesCount() == 0 {
				continue
			}
			dec, ok := decRank(r)
			if !ok {
				t.Fatalf("nonzero rank %s reported underflow", r)
			}
			// r-1 and r are adjacent ranks, so their Gray codes differ in
			// exactly one bit and compare in order.
			a, b := gray.FromRank(dec), gray.FromRank(r)
			if d := a.Distance(b); d != 1 {
				t.Fatalf("adjacent ranks differ by %d bits", d)
			}
			if gray.Compare(a, b) >= 0 {
				t.Fatalf("dec rank does not precede in Gray order")
			}
		}
	}
}

// Property tests (testing/quick): partitionCounts always sums to
// len(codes), and PartitionID stays within [0, len(pivots)], across random
// pivot/code sets including empty and duplicate pivot lists.
func TestCountsAndPartitionIDProperties(t *testing.T) {
	type tcase struct {
		Bits   uint8
		Pivots uint8
		Codes  uint8
		Dup    bool
		Seed   int64
	}
	prop := func(tc tcase) bool {
		bits := int(tc.Bits)%100 + 1
		rng := rand.New(rand.NewSource(tc.Seed))
		var pivots []bitvec.Code
		if n := int(tc.Pivots) % 8; n > 0 {
			sample := make([]bitvec.Code, 32)
			for i := range sample {
				sample[i] = bitvec.Rand(rng, bits)
			}
			pivots = Pivots(sample, n+1)
			if tc.Dup && len(pivots) > 1 {
				pivots[len(pivots)-1] = pivots[0].Clone()
				gray.Sort(pivots, nil)
			}
		}
		codes := make([]bitvec.Code, int(tc.Codes))
		for i := range codes {
			codes[i] = bitvec.Rand(rng, bits)
			if id := PartitionID(pivots, codes[i]); id < 0 || id > len(pivots) {
				return false
			}
		}
		counts := partitionCounts(codes, pivots)
		if len(counts) != len(pivots)+1 {
			return false
		}
		sum := 0
		for _, c := range counts {
			sum += c
		}
		return sum == len(codes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

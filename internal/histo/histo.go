// Package histo implements the sampling-based partitioning of Section 5.1:
// an equi-depth histogram over the Gray ranks of sampled binary codes yields
// pivot values that split the Gray-ordered code space into partitions of
// approximately equal tuple counts, so reducers receive balanced work even
// on skewed data. Because partitions are contiguous Gray ranges, tuples in
// one partition share FLSSeq patterns, which keeps the per-partition
// HA-Indexes effective.
package histo

import (
	"sort"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// Pivots returns parts-1 pivot codes from an equi-depth histogram over the
// sample: pivot m is the sample code at rank m·|sample|/parts in Gray order.
// Partition m holds the codes c with pivot[m-1] <= c < pivot[m] (Gray
// order). The sample is not modified.
func Pivots(sample []bitvec.Code, parts int) []bitvec.Code {
	if parts <= 1 || len(sample) == 0 {
		return nil
	}
	sorted := make([]bitvec.Code, len(sample))
	copy(sorted, sample)
	gray.Sort(sorted, nil)
	pivots := make([]bitvec.Code, 0, parts-1)
	for m := 1; m < parts; m++ {
		i := m * len(sorted) / parts
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		pivots = append(pivots, sorted[i])
	}
	return pivots
}

// Sample returns at most k codes drawn at a fixed stride across the whole
// slice, so every region of the input contributes — unlike a prefix slice,
// which on row-ordered (clustered) datasets sees only the first cluster and
// yields pivots that dump everything else into the last partition. The
// returned slice aliases the input and must not be mutated.
func Sample(codes []bitvec.Code, k int) []bitvec.Code {
	if k <= 0 || len(codes) <= k {
		return codes
	}
	out := make([]bitvec.Code, 0, k)
	// Pick the middle of each of k equal spans: i = (2j+1)·n/(2k).
	for j := 0; j < k; j++ {
		out = append(out, codes[(2*j+1)*len(codes)/(2*k)])
	}
	return out
}

// UniformPivots splits the whole L-bit Gray rank space into parts equal
// ranges, ignoring the data distribution — the ablation baseline for the
// histogram pivots.
func UniformPivots(length, parts int) []bitvec.Code {
	if parts <= 1 {
		return nil
	}
	pivots := make([]bitvec.Code, 0, parts-1)
	for m := 1; m < parts; m++ {
		// rank = floor(m/parts · 2^length), built bit by bit from the
		// binary expansion of the fraction m/parts.
		rank := bitvec.New(length)
		num := m
		for i := 0; i < length; i++ {
			num *= 2
			if num >= parts {
				rank.SetBit(i, true)
				num -= parts
			}
		}
		pivots = append(pivots, gray.FromRank(rank))
	}
	return pivots
}

// PartitionID returns the partition index of c under the pivots: the number
// of pivots at or before c in Gray order, found by binary search.
func PartitionID(pivots []bitvec.Code, c bitvec.Code) int {
	return sort.Search(len(pivots), func(i int) bool {
		return gray.Compare(pivots[i], c) > 0
	})
}

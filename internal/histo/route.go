package histo

import (
	"math/bits"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// Shard routing over Gray-range partitions.
//
// A partition is a contiguous interval of Gray ranks, so every code it can
// contain shares the Gray-code prefix determined by the common binary prefix
// of the interval's rank endpoints: if ranks rlo..rhi agree on their first k
// bits, every rank in between does too, and because Gray bit i depends only
// on rank bits i-1 and i, every code in the partition agrees on its first k
// Gray bits. The Hamming distance from a query q to any code in the
// partition is therefore at least the distance between q's first k bits and
// that shared prefix — a sound lower bound that lets an online router skip
// shards whose Gray range cannot contain a match within threshold h.

// Ranges precomputes, per partition, the shared Gray prefix of the
// partition's rank interval, so routing a query costs one masked popcount
// per partition. Build once per pivot set and share read-only.
type Ranges struct {
	parts int
	// empty marks partitions whose rank interval is empty (duplicate or
	// degenerate pivots); they can never contain a code.
	empty []bool
	// prefixLen[m] is the number of leading Gray bits all codes of partition
	// m share; prefixGray[m] carries those bits (its remaining bits are
	// ignored).
	prefixLen  []int
	prefixGray []bitvec.Code
}

// NewRanges builds the routing table for length-bit codes under the pivots
// (the same pivot list Pivots returns and PartitionID consumes).
func NewRanges(length int, pivots []bitvec.Code) *Ranges {
	parts := len(pivots) + 1
	ranks := make([]bitvec.Code, len(pivots))
	for i, p := range pivots {
		ranks[i] = gray.Rank(p)
	}
	r := &Ranges{
		parts:      parts,
		empty:      make([]bool, parts),
		prefixLen:  make([]int, parts),
		prefixGray: make([]bitvec.Code, parts),
	}
	for m := 0; m < parts; m++ {
		var lo bitvec.Code
		if m == 0 {
			lo = bitvec.New(length)
		} else {
			lo = ranks[m-1]
		}
		var hi bitvec.Code
		if m == parts-1 {
			hi = maxRank(length)
		} else {
			// Codes equal to pivot m belong to partition m+1, so the
			// inclusive upper rank is rank(pivot[m])-1; rank 0 means the
			// pivot is the Gray-minimum code and the partition is empty.
			var ok bool
			hi, ok = decRank(ranks[m])
			if !ok {
				r.empty[m] = true
				continue
			}
		}
		if lo.Compare(hi) > 0 {
			r.empty[m] = true
			continue
		}
		r.prefixLen[m] = commonPrefixLen(lo, hi)
		r.prefixGray[m] = gray.FromRank(lo)
	}
	return r
}

// Parts returns the number of partitions (len(pivots)+1).
func (r *Ranges) Parts() int { return r.parts }

// Route appends to dst the partitions that can contain a code within Hamming
// distance h of q and returns the extended slice. The partition owning q is
// always included; partitions whose lower bound exceeds h are pruned.
func (r *Ranges) Route(dst []int, q bitvec.Code, h int) []int {
	for m := 0; m < r.parts; m++ {
		if r.empty[m] {
			continue
		}
		if prefixDistance(q, r.prefixGray[m], r.prefixLen[m]) <= h {
			dst = append(dst, m)
		}
	}
	return dst
}

// maxRank returns the all-ones length-bit rank (the last Gray rank).
func maxRank(length int) bitvec.Code {
	c := bitvec.New(length)
	w := c.Words()
	for i := range w {
		w[i] = ^uint64(0)
	}
	if rem := uint(length % 64); rem != 0 {
		w[len(w)-1] &= ^uint64(0) << (64 - rem)
	}
	return c
}

// decRank returns r-1 for a length-bit rank in the MSB-first bitvec layout;
// ok is false when r is zero (no predecessor).
func decRank(r bitvec.Code) (bitvec.Code, bool) {
	out := r.Clone()
	w := out.Words()
	// Bit length-1 sits above the tail padding of the last word, so the
	// least significant rank bit has weight 1<<shift there.
	shift := uint((64 - r.Len()%64) % 64)
	borrow := uint64(1) << shift
	for i := len(w) - 1; i >= 0; i-- {
		old := w[i]
		w[i] = old - borrow
		if old >= borrow {
			return out, true
		}
		borrow = 1
	}
	return bitvec.Code{}, false
}

// commonPrefixLen returns how many leading bits a and b share.
func commonPrefixLen(a, b bitvec.Code) int {
	aw, bw := a.Words(), b.Words()
	for i := range aw {
		if x := aw[i] ^ bw[i]; x != 0 {
			k := i*64 + bits.LeadingZeros64(x)
			if k > a.Len() {
				k = a.Len()
			}
			return k
		}
	}
	return a.Len()
}

// prefixDistance counts differing bits among the first k bits of a and b.
func prefixDistance(a, b bitvec.Code, k int) int {
	aw, bw := a.Words(), b.Words()
	d := 0
	full := k / 64
	for i := 0; i < full; i++ {
		d += bits.OnesCount64(aw[i] ^ bw[i])
	}
	if rem := uint(k % 64); rem != 0 {
		mask := ^uint64(0) << (64 - rem)
		d += bits.OnesCount64((aw[full] ^ bw[full]) & mask)
	}
	return d
}

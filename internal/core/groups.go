package core

import (
	"math/bits"

	"haindex/internal/bitvec"
)

// GroupView is a read-only view of a leaf arena: distinct codes packed
// back to back with their tuple ids. It is the one layout the frozen
// HA-Index, multi-index hashing, and the brute scan all read — the scan is
// the view itself, as an Engine — so a serving shard keeps a single copy of
// its codes: for an mmap'd FrozenIndex, the mapping itself. A view never
// owns its slabs: whoever produced them (the FrozenIndex, and through it the
// mapping's owner) must outlive every reader of the view, and nothing may
// write through it.
type GroupView struct {
	Length  int      // code length L in bits
	Codes   []uint64 // (Length+63)/64 words per group
	IDStart []int32  // group gi's ids are IDs[IDStart[gi]:IDStart[gi+1]]
	IDs     []int
}

// Groups exposes the index's leaf arena — Gray-ordered distinct codes,
// idStart, ids — without copying. The view aliases the arena (the mapping,
// for an mmap'd index) and is invalid after Close.
func (f *FrozenIndex) Groups() GroupView {
	return GroupView{Length: f.length, Codes: f.codeSlab, IDStart: f.idStart, IDs: f.idSlab}
}

// Words returns the number of words per code.
func (v GroupView) Words() int { return (v.Length + 63) / 64 }

// Count returns the number of groups.
func (v GroupView) Count() int {
	if len(v.IDStart) == 0 {
		return 0
	}
	return len(v.IDStart) - 1
}

// Code returns group gi's code, aliasing the slab.
func (v GroupView) Code(gi int) bitvec.Code {
	nw := v.Words()
	return bitvec.FromWordsShared(v.Codes[gi*nw:(gi+1)*nw], v.Length)
}

// GroupIDs returns group gi's tuple ids, aliasing the slab
// (capacity-clamped so appends can never bleed).
func (v GroupView) GroupIDs(gi int) []int {
	lo, hi := v.IDStart[gi], v.IDStart[gi+1]
	return v.IDs[lo:hi:hi]
}

// SizeBytes returns the footprint of the view's slabs.
func (v GroupView) SizeBytes() int { return 8*(len(v.Codes)+len(v.IDs)) + 4*len(v.IDStart) }

// Tuples invokes fn for every (id, code) pair in the view.
func (v GroupView) Tuples(fn func(id int, code bitvec.Code)) {
	for gi, ng := 0, v.Count(); gi < ng; gi++ {
		code := v.Code(gi)
		for _, id := range v.GroupIDs(gi) {
			fn(id, code)
		}
	}
}

// Groups implements Engine: the brute scan reads the view it is.
func (v GroupView) Groups() GroupView { return v }

// NewScratch implements Engine: the scan keeps no state, so the view is its
// own scratch, and any number of searchers may scan one view at once.
func (v GroupView) NewScratch() EngineScratch { return v }

// Search implements EngineScratch as the brute-force Hamming-select: one flat
// pass over the code slab, appending to out the index of every group within
// distance h of q. Every group costs one distance computation and one leaf
// checked.
func (v GroupView) Search(q bitvec.Code, h int, stats *SearchStats, out []int32) []int32 {
	ng := v.Count()
	stats.DistanceComputations += ng
	stats.LeavesChecked += ng
	qw := q.Words()
	if nw := v.Words(); nw > 1 {
		for gi := 0; gi < ng; gi++ {
			if _, ok := distWithinWords(qw, v.Codes[gi*nw:(gi+1)*nw], h); ok {
				out = append(out, int32(gi))
			}
		}
		return out
	}
	q0 := qw[0]
	for gi, w := range v.Codes {
		if bits.OnesCount64(q0^w) <= h {
			out = append(out, int32(gi))
		}
	}
	return out
}

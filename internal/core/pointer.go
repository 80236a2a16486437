package core

import (
	"sync"

	"haindex/internal/bitvec"
)

// pointerIndex is the sealed query surface of the paper's two pointer forms,
// the Static (Section 4.3) and the Dynamic (Section 4.4) HA-Index, that a
// PointerSearcher drives. Serving paths hold a FrozenIndex instead; these
// forms stay for the reproduction (H-Build, H-Search, H-Insert, H-Delete).
type pointerIndex interface {
	// searchPointer runs one Hamming-select on the searcher's scratch,
	// leaving every qualifying leaf group in ps.found and every qualifying
	// tuple that lives outside the hierarchy (the Dynamic index's unflushed
	// insert buffer) in ps.loose, and adding its work to ps.Stats.
	searchPointer(ps *PointerSearcher, q bitvec.Code, h int)
}

// PointerSearcher owns the per-worker scratch of H-Search over a pointer
// index: the Dynamic walk's BFS queue, the Static walk's memoized per-level
// distance tables, stack, path and key buffers, and the emission buffers.
// Steady-state Search and SearchAppend perform no heap allocations; the
// scratch grows to the high-water mark of the queries seen.
//
// Like Searcher, a PointerSearcher is not safe for concurrent use: give each
// goroutine its own over the shared index, which no goroutine may mutate
// (Insert, Delete, Flush) while searches run.
type PointerSearcher struct {
	idx pointerIndex

	// Stats describes the most recent Search/SearchAppend call.
	Stats SearchStats

	// The last walk's qualifying leaf groups, and its qualifying tuples from
	// outside the hierarchy, in the order the walk reached them.
	found []*leafGroup
	loose []pendingInsert

	// Dynamic H-Search scratch: the BFS work queue.
	queue []qitem

	// Static walk scratch. memo[l][nid] packs (epoch<<7 | dist+1) so the
	// per-level distance tables reset between queries by bumping epoch
	// instead of clearing O(nodes) entries.
	memo  [][]uint32
	epoch uint32
	qsegs []uint64
	stack []sframe
	path  []uint64
	// asmWords and keyBuf assemble and key a candidate multi-word code
	// without constructing a bitvec.Code.
	asmWords []uint64
	keyBuf   []byte

	// The result buffer Search reuses across calls.
	ids []int
}

// NewPointerSearcher returns a searcher bound to a *DynamicIndex or a
// *StaticIndex. The first few searches size the scratch; afterwards searches
// are allocation-free.
func NewPointerSearcher(idx pointerIndex) *PointerSearcher { return &PointerSearcher{idx: idx} }

// run resets the per-search state and walks the index.
func (ps *PointerSearcher) run(q bitvec.Code, h int) {
	ps.Stats = SearchStats{}
	ps.found = ps.found[:0]
	ps.loose = ps.loose[:0]
	ps.idx.searchPointer(ps, q, h)
}

// Search returns the ids of all tuples within Hamming distance h of q. The
// returned slice aliases the searcher's scratch and is valid only until the
// next call on this searcher; copy it if it must outlive that.
func (ps *PointerSearcher) Search(q bitvec.Code, h int) []int {
	ps.ids = ps.SearchAppend(ps.ids[:0], q, h)
	return ps.ids
}

// SearchAppend appends the qualifying ids to dst and returns it; unlike
// Search the result does not alias the searcher's scratch.
func (ps *PointerSearcher) SearchAppend(dst []int, q bitvec.Code, h int) []int {
	ps.run(q, h)
	for _, g := range ps.found {
		dst = append(dst, g.ids...)
	}
	for _, p := range ps.loose {
		dst = append(dst, p.id)
	}
	return dst
}

// pointerPool recycles the searchers the pointer indexes' own Search and
// SearchInto run on; those may run concurrently on one index.
var pointerPool = sync.Pool{New: func() any { return new(PointerSearcher) }}

// searchInto is SearchInto for either pointer form: one search on a pooled
// searcher, its work added to stats.
func searchInto(idx pointerIndex, q bitvec.Code, h int, stats *SearchStats) []int {
	ps := pointerPool.Get().(*PointerSearcher)
	defer pointerPool.Put(ps)
	ps.idx = idx
	out := ps.SearchAppend(nil, q, h)
	stats.Add(ps.Stats)
	return out
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// Index is the read-only query interface of an index over one leaf arena:
// the FrozenIndex, and an external engine adapted with AsIndex. A Searcher
// binds to one Index; many Searchers may query the same Index concurrently —
// the contract under which a broadcast index is shared by every reducer of a
// MapReduce join (Section 5). The paper's pointer forms, the Static and
// Dynamic HA-Index, run on a PointerSearcher instead.
type Index interface {
	// Length returns the code length L in bits.
	Length() int
	// Len returns the number of indexed tuples.
	Len() int
	// searchWith runs one Hamming-select against the index using the
	// searcher's scratch state, and returns the index's leaf arena with the
	// indexes of the qualifying groups in it, on the searcher's scratch.
	searchWith(sr *Searcher, q bitvec.Code, h int) (GroupView, []int32)
}

// Searcher owns the per-worker scratch state of the query engine: the frozen
// walk's queue, the block walk's, the qualifying groups, the result
// buffers, an adapted engine's scratch, and per-search statistics.
// Steady-state Search and SearchCodes perform no heap allocations; the
// scratch grows to the high-water mark of the queries seen and is reused
// afterwards.
//
// A Searcher is NOT safe for concurrent use — it is the unit of concurrency:
// give each goroutine its own Searcher over the shared index (or use
// SearchBatch, which does exactly that).
type Searcher struct {
	idx Index

	// Stats describes the most recent Search/SearchCodes call.
	Stats SearchStats

	// groups holds the qualifying groups of the last search — the frozen
	// walks' and an adapted engine's — as indexes into the arena.
	groups []int32

	// Frozen walk scratch: the BFS queue over flat node ids.
	fqueue []fitem

	// xscratch is an adapted engine's per-searcher state (EngineIndex).
	xscratch EngineScratch

	// Block walk scratch (SearchBatch over a frozen index): the shared queue,
	// the accumulated distances its entries index, the block's query words,
	// and each query's qualifying groups (see FrozenIndex.walkBlock).
	bqueue []bitem
	bdists []int32
	bwords []uint64
	bout   [][]int32

	// Result buffers Search and SearchCodes reuse across calls.
	ids   []int
	codes []bitvec.Code
}

// NewSearcher returns a Searcher bound to idx. The first few searches size
// the scratch; afterwards searches are allocation-free.
func NewSearcher(idx Index) *Searcher { return &Searcher{idx: idx} }

// Search returns the ids of all tuples within Hamming distance h of q. The
// returned slice aliases the searcher's scratch and is valid only until the
// next call on this searcher; copy it if it must outlive that.
func (sr *Searcher) Search(q bitvec.Code, h int) []int {
	sr.ids = sr.SearchAppend(sr.ids[:0], q, h)
	return sr.ids
}

// SearchCodes returns the distinct qualifying codes instead of ids, under
// the same scratch-aliasing contract as Search.
func (sr *Searcher) SearchCodes(q bitvec.Code, h int) []bitvec.Code {
	sr.Stats = SearchStats{}
	sr.codes = sr.codes[:0]
	v, groups := sr.idx.searchWith(sr, q, h)
	for _, gi := range groups {
		sr.codes = append(sr.codes, v.Code(int(gi)))
	}
	return sr.codes
}

// SearchAppend appends the qualifying ids to dst and returns it; unlike
// Search the result does not alias the searcher's scratch. The qualifying
// groups' ids are resolved straight into dst.
func (sr *Searcher) SearchAppend(dst []int, q bitvec.Code, h int) []int {
	sr.Stats = SearchStats{}
	v, groups := sr.idx.searchWith(sr, q, h)
	for _, gi := range groups {
		dst = append(dst, v.GroupIDs(int(gi))...)
	}
	return dst
}

// Add accumulates o into s; SearchBatch uses it to aggregate per-worker
// statistics.
func (s *SearchStats) Add(o SearchStats) {
	s.DistanceComputations += o.DistanceComputations
	s.NodesVisited += o.NodesVisited
	s.LeavesChecked += o.LeavesChecked
}

// SearchBatch answers a batch of Hamming-select queries against one shared
// read-only index with a pool of workers. results[i] holds the ids matching
// queries[i], in the order Searcher.Search returns them (nil when none).
// workers <= 0 selects GOMAXPROCS; workers == 1 runs serially on the calling
// goroutine. The returned stats aggregate the work of the whole batch.
//
// Over a *FrozenIndex the queries are walked a Gray-ordered block at a time
// (FrozenIndex.walkBlock), so neighbouring queries share the nodes at the top
// of the hierarchy; an adapted engine answers them one by one on a Searcher.
// The results of one worker share a backing array, each capacity-clamped.
func SearchBatch(idx Index, queries []bitvec.Code, h, workers int) ([][]int, SearchStats) {
	return searchBatch(idx, queries, h, workers, (*Searcher).Search,
		func(dst []int, v GroupView, gi int32) []int { return append(dst, v.GroupIDs(int(gi))...) })
}

// SearchCodesBatch is SearchBatch returning the distinct qualifying codes
// per query — the leafless mode of MapReduce Hamming-join Option B — in the
// order Searcher.SearchCodes returns them.
func SearchCodesBatch(idx Index, queries []bitvec.Code, h, workers int) ([][]bitvec.Code, SearchStats) {
	return searchBatch(idx, queries, h, workers, (*Searcher).SearchCodes,
		func(dst []bitvec.Code, v GroupView, gi int32) []bitvec.Code { return append(dst, v.Code(int(gi))) })
}

// searchBatch is SearchBatch for either result kind: search answers one
// query on a Searcher, and put appends what search emits for leaf group gi
// of the frozen index's arena v.
func searchBatch[T any](idx Index, queries []bitvec.Code, h, workers int,
	search func(*Searcher, bitvec.Code, int) []T, put func([]T, GroupView, int32) []T) ([][]T, SearchStats) {
	results := make([][]T, len(queries))
	f, ok := idx.(*FrozenIndex)
	if !ok {
		return results, runBatch(idx, len(queries), workers, func(sr *Searcher) func(int) {
			var keep slab[T]
			return func(i int) {
				if out := search(sr, queries[i], h); len(out) > 0 {
					results[i] = keep.add(out)
				}
			}
		})
	}
	for _, q := range queries {
		if q.Len() != f.length {
			panic(fmt.Sprintf("core: %d-bit query against %d-bit frozen index", q.Len(), f.length))
		}
	}
	// Gray order puts queries that agree on their leading bits side by side,
	// and so in one block; perm maps a sorted position back to the caller's.
	sorted := append([]bitvec.Code(nil), queries...)
	perm := make([]int, len(sorted))
	for i := range perm {
		perm[i] = i
	}
	gray.Sort(sorted, perm)
	v := f.Groups()
	blocks := (len(sorted) + blockSize - 1) / blockSize
	return results, runBatch(idx, blocks, workers, func(sr *Searcher) func(int) {
		var keep slab[T]
		var out []T
		return func(b int) {
			lo := b * blockSize
			hi := min(lo+blockSize, len(sorted))
			f.walkBlock(sr, sorted[lo:hi], h)
			for j, groups := range sr.bout[:hi-lo] {
				out = out[:0]
				for _, gi := range groups {
					out = put(out, v, gi)
				}
				if len(out) > 0 {
					results[perm[lo+j]] = keep.add(out)
				}
			}
		}
	})
}

// slab is one batch worker's result storage: add copies a result into the
// current backing array, or into a fresh one at least twice the size when it
// does not fit, so a batch allocates a few arrays rather than one per query.
type slab[T any] []T

func (s *slab[T]) add(out []T) []T {
	if cap(*s)-len(*s) < len(out) {
		*s = make([]T, 0, max(len(out), 2*cap(*s), 256))
	}
	at := len(*s)
	*s = append(*s, out...)
	return (*s)[at:len(*s):len(*s)]
}

// runBatch runs units [0, n) on a pool of workers, each with its own Searcher
// and the run function worker builds over it. Workers claim units off a shared
// atomic cursor, so skewed units do not unbalance fixed chunks. A unit leaves
// its work in sr.Stats, and the returned stats sum every unit's.
func runBatch(idx Index, n, workers int, worker func(sr *Searcher) func(unit int)) SearchStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	var cursor atomic.Int64
	perWorker := make([]SearchStats, workers)
	drain := func(w int) {
		sr := NewSearcher(idx)
		run := worker(sr)
		for u := int(cursor.Add(1)) - 1; u < n; u = int(cursor.Add(1)) - 1 {
			run(u)
			perWorker[w].Add(sr.Stats)
		}
	}
	if workers == 1 {
		drain(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain(w)
			}()
		}
		wg.Wait()
	}
	var agg SearchStats
	for _, st := range perWorker {
		agg.Add(st)
	}
	return agg
}

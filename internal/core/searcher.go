package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// Searcher runs one engine's searches and resolves the qualifying groups
// they report to ids or codes: it holds the engine's one scratch, the
// engine's leaf arena, the group and result buffers, and per-search
// statistics. Every search checks the query's code length against the
// arena's here, once for all engines. Steady-state Search and SearchCodes
// perform no heap allocations when the engine's scratch does not; the
// buffers grow to the high-water mark of the queries seen and are reused
// afterwards.
//
// A Searcher is NOT safe for concurrent use — it is the unit of concurrency:
// give each goroutine its own Searcher over the shared engine (or use
// SearchBatch, which does exactly that).
type Searcher struct {
	scratch EngineScratch
	grp     GroupView

	// Stats describes the most recent Search/SearchCodes call.
	Stats SearchStats

	// groups holds the qualifying groups of the last search, as indexes
	// into grp.
	groups []int32

	// Result buffers Search and SearchCodes reuse across calls.
	ids   []int
	codes []bitvec.Code
}

// NewSearcher returns a Searcher over e with a fresh scratch of e's. The
// first few searches size the buffers; afterwards searches are
// allocation-free when e's scratch is.
func NewSearcher(e Engine) *Searcher { return &Searcher{scratch: e.NewScratch(), grp: e.Groups()} }

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
	sr.codes = sr.codes[:0]
	for _, gi := range sr.search(q, h) {
		sr.codes = append(sr.codes, sr.grp.Code(int(gi)))
	}
	return sr.codes
}

// SearchAppend appends the qualifying ids to dst and returns it; unlike
// Search the result does not alias the searcher's scratch. The qualifying
// groups' ids are resolved straight into dst.
func (sr *Searcher) SearchAppend(dst []int, q bitvec.Code, h int) []int {
	for _, gi := range sr.search(q, h) {
		dst = append(dst, sr.grp.GroupIDs(int(gi))...)
	}
	return dst
}

// search runs one Hamming-select on the engine's scratch, leaving its work
// in Stats, and returns the qualifying groups. A query of another code
// length than the arena's panics, whatever the engine.
func (sr *Searcher) search(q bitvec.Code, h int) []int32 {
	if q.Len() != sr.grp.Length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit index", q.Len(), sr.grp.Length))
	}
	sr.Stats = SearchStats{}
	sr.groups = sr.scratch.Search(q, h, &sr.Stats, sr.groups[:0])
	return sr.groups
}

// Add accumulates o into s; SearchBatch uses it to aggregate per-worker
// statistics.
func (s *SearchStats) Add(o SearchStats) {
	s.DistanceComputations += o.DistanceComputations
	s.NodesVisited += o.NodesVisited
	s.LeavesChecked += o.LeavesChecked
}

// SearchBatch answers a batch of Hamming-select queries against one shared
// read-only engine with a pool of workers. results[i] holds the ids matching
// queries[i], in the order Searcher.Search returns them (nil when none).
// workers <= 0 selects GOMAXPROCS; workers == 1 runs serially on the calling
// goroutine. The returned stats aggregate the work of the whole batch.
//
// Over a *FrozenIndex the queries are walked a Gray-ordered block at a time
// (FrozenIndex.walkBlock), so neighbouring queries share the nodes at the top
// of the hierarchy; any other engine answers them one by one on a Searcher.
// The results of one worker share a backing array, each capacity-clamped.
func SearchBatch(e Engine, queries []bitvec.Code, h, workers int) ([][]int, SearchStats) {
	return searchBatch(e, queries, h, workers, (*Searcher).Search,
		func(dst []int, v GroupView, gi int32) []int { return append(dst, v.GroupIDs(int(gi))...) })
}

// SearchCodesBatch is SearchBatch returning the distinct qualifying codes
// per query — the leafless mode of MapReduce Hamming-join Option B — in the
// order Searcher.SearchCodes returns them.
func SearchCodesBatch(e Engine, queries []bitvec.Code, h, workers int) ([][]bitvec.Code, SearchStats) {
	return searchBatch(e, queries, h, workers, (*Searcher).SearchCodes,
		func(dst []bitvec.Code, v GroupView, gi int32) []bitvec.Code { return append(dst, v.Code(int(gi))) })
}

// checkLengths panics unless every query has e's code length. A batch checks
// before any worker starts: a panic in one would end the process.
func checkLengths(e Engine, queries []bitvec.Code) {
	length := e.Groups().Length
	for _, q := range queries {
		if q.Len() != length {
			panic(fmt.Sprintf("core: %d-bit query against %d-bit index", q.Len(), length))
		}
	}
}

// searchBatch is SearchBatch for either result kind: search answers one
// query on a Searcher, and put appends what search emits for leaf group gi
// of the frozen index's arena v.
func searchBatch[T any](e Engine, queries []bitvec.Code, h, workers int,
	search func(*Searcher, bitvec.Code, int) []T, put func([]T, GroupView, int32) []T) ([][]T, SearchStats) {
	checkLengths(e, queries)
	results := make([][]T, len(queries))
	f, ok := e.(*FrozenIndex)
	if !ok {
		return results, runBatch(len(queries), workers, func(st *SearchStats) func(int) {
			sr := NewSearcher(e)
			var keep slab[T]
			return func(i int) {
				if out := search(sr, queries[i], h); len(out) > 0 {
					results[i] = keep.add(out)
				}
				st.Add(sr.Stats)
			}
		})
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
	return results, runBatch(blocks, workers, func(st *SearchStats) func(int) {
		s := &haScratch{f: f}
		var keep slab[T]
		var out []T
		return func(b int) {
			lo := b * blockSize
			hi := min(lo+blockSize, len(sorted))
			f.walkBlock(s, sorted[lo:hi], h, st)
			for j, groups := range s.bout[:hi-lo] {
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

// runBatch runs units [0, n) on a pool of workers, each with the run
// function worker builds over its own statistics, into which every unit adds
// its work. Workers claim units off a shared atomic cursor, so skewed units
// do not unbalance fixed chunks. The returned stats sum every worker's.
func runBatch(n, workers int, worker func(st *SearchStats) func(unit int)) SearchStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	var cursor atomic.Int64
	perWorker := make([]SearchStats, workers)
	drain := func(w int) {
		run := worker(&perWorker[w])
		for u := int(cursor.Add(1)) - 1; u < n; u = int(cursor.Add(1)) - 1 {
			run(u)
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

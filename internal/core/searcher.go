package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// Index is the read-only query interface shared by the Static and Dynamic
// HA-Index. A Searcher binds to one Index; many Searchers may query the same
// Index concurrently as long as no goroutine mutates it (Insert, Delete,
// Flush) — the contract under which a broadcast index is shared by every
// reducer of a MapReduce join (Section 5).
type Index interface {
	// Length returns the code length L in bits.
	Length() int
	// Len returns the number of indexed tuples.
	Len() int
	// searchWith runs one Hamming-select against the index using the
	// searcher's scratch state. An index over one leaf arena — frozen, or an
	// adapted engine — returns the arena and the indexes of the qualifying
	// groups in it, on the searcher's scratch, and calls neither emit
	// function. The pointer indexes return an empty view and nil instead:
	// emitGroup receives each qualifying distinct code with its tuple ids,
	// emitOne each qualifying tuple that lives outside the hierarchy (the
	// Dynamic index's unflushed insert buffer).
	searchWith(sr *Searcher, q bitvec.Code, h int, emitGroup func(*leafGroup), emitOne func(id int, c bitvec.Code)) (GroupView, []int32)
}

// Searcher owns the per-worker scratch state of the query engine: memoized
// per-level distance tables (Static), the traversal stack/queue, path and
// emission buffers, and per-search statistics. Steady-state Search and
// SearchCodes perform no heap allocations; the scratch grows to the
// high-water mark of the queries seen and is reused afterwards.
//
// A Searcher is NOT safe for concurrent use — it is the unit of concurrency:
// give each goroutine its own Searcher over the shared index (or use
// SearchBatch, which does exactly that).
type Searcher struct {
	idx Index

	// Stats describes the most recent Search/SearchCodes call.
	Stats SearchStats

	// Dynamic H-Search scratch: the BFS work queue.
	queue []qitem

	// groups holds the qualifying groups of the last arena search — the
	// frozen walks' and an adapted engine's — as indexes into the arena.
	groups []int32

	// Frozen walk scratch: the BFS queue over flat node ids, the qualifying
	// groups' distances beside groups (TopK's walk), and the epoch-packed
	// per-node residual-distance memo with per-group seen marks that TopK's
	// radius escalation reuses (see FrozenIndex.walkMemo).
	fqueue []fitem
	fdists []int32
	fmemo  []uint64
	fseen  []uint64
	fepoch uint64

	// Block walk scratch (SearchBatch over a frozen index): the shared queue,
	// the accumulated distances its entries index, the block's query words,
	// and each query's qualifying groups (see FrozenIndex.walkBlock).
	bqueue []bitem
	bdists []int32
	bwords []uint64
	bout   [][]int32

	// Static walk scratch. memo[l][nid] packs (epoch<<7 | dist+1) so the
	// per-level distance tables reset between queries by bumping epoch
	// instead of clearing O(nodes) entries.
	memo  [][]uint32
	epoch uint32
	qsegs []uint64
	stack []sframe
	path  []uint64
	found []*leafGroup
	// asmWords and keyBuf assemble and key a candidate multi-word code
	// without constructing a bitvec.Code.
	asmWords []uint64
	keyBuf   []byte

	// Emission buffers reused across searches, and the pointer indexes'
	// emit closures into them, created once here so a Search call does not
	// allocate them.
	ids        []int
	codes      []bitvec.Code
	emitGIDs   func(*leafGroup)
	emitOneID  func(int, bitvec.Code)
	emitGCode  func(*leafGroup)
	emitOneCod func(int, bitvec.Code)

	// xscratch is an adapted engine's per-searcher state (EngineIndex).
	xscratch EngineScratch
}

// sframe is one frame of the Static index's iterative depth-first walk: the
// node to expand and the Hamming distance accumulated over its ancestors.
type sframe struct {
	level int32
	nid   int32
	dist  int32
}

// NewSearcher returns a Searcher bound to idx. The first few searches size
// the scratch; afterwards searches are allocation-free.
func NewSearcher(idx Index) *Searcher {
	sr := &Searcher{idx: idx}
	sr.emitGIDs = func(g *leafGroup) { sr.ids = append(sr.ids, g.ids...) }
	sr.emitOneID = func(id int, c bitvec.Code) { sr.ids = append(sr.ids, id) }
	sr.emitGCode = func(g *leafGroup) { sr.codes = append(sr.codes, g.code) }
	sr.emitOneCod = func(id int, c bitvec.Code) { sr.codes = append(sr.codes, c) }
	return sr
}

// Index returns the index this searcher is bound to.
func (sr *Searcher) Index() Index { return sr.idx }

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
	v, groups := sr.idx.searchWith(sr, q, h, sr.emitGCode, sr.emitOneCod)
	for _, gi := range groups {
		sr.codes = append(sr.codes, v.Code(int(gi)))
	}
	return sr.codes
}

// SearchAppend appends the qualifying ids to dst and returns it; unlike
// Search the result does not alias the searcher's scratch. The ids go
// straight into dst: an arena index's groups are resolved there, and a
// pointer index's emit closures append to dst in the scratch's place.
func (sr *Searcher) SearchAppend(dst []int, q bitvec.Code, h int) []int {
	sr.Stats = SearchStats{}
	sr.ids, dst = dst, sr.ids
	v, groups := sr.idx.searchWith(sr, q, h, sr.emitGIDs, sr.emitOneID)
	sr.ids, dst = dst, sr.ids
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
// of the hierarchy; any other index answers them one by one on a Searcher.
// The results of one worker share a backing array, each capacity-clamped.
func SearchBatch(idx Index, queries []bitvec.Code, h, workers int) ([][]int, SearchStats) {
	return searchBatch(idx, queries, h, workers, (*Searcher).Search,
		func(dst []int, f *FrozenIndex, gi int32) []int { return append(dst, f.groupIDs(gi)...) })
}

// SearchCodesBatch is SearchBatch returning the distinct qualifying codes
// per query — the leafless mode of MapReduce Hamming-join Option B — in the
// order Searcher.SearchCodes returns them.
func SearchCodesBatch(idx Index, queries []bitvec.Code, h, workers int) ([][]bitvec.Code, SearchStats) {
	return searchBatch(idx, queries, h, workers, (*Searcher).SearchCodes,
		func(dst []bitvec.Code, f *FrozenIndex, gi int32) []bitvec.Code { return append(dst, f.groupCode(gi)) })
}

// searchBatch is SearchBatch for either result kind: search answers one
// query on a Searcher, and put appends what search emits for frozen leaf
// group gi.
func searchBatch[T any](idx Index, queries []bitvec.Code, h, workers int,
	search func(*Searcher, bitvec.Code, int) []T, put func([]T, *FrozenIndex, int32) []T) ([][]T, SearchStats) {
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
					out = put(out, f, gi)
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

// ---- Static HA-Index walk on searcher scratch ----

// searchWith implements Index for the Static HA-Index: the budgeted layered-
// graph walk of Search, driven by an explicit stack and epoch-reset memo
// tables instead of a per-query recursive closure.
func (s *StaticIndex) searchWith(sr *Searcher, q bitvec.Code, h int, emitGroup func(*leafGroup), emitOne func(int, bitvec.Code)) (GroupView, []int32) {
	if q.Len() != s.length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit static index", q.Len(), s.length))
	}
	// The merged-layer graph can contain far more qualifying paths than real
	// codes once h stops pruning (spurious paths are only filtered at
	// assembly). Bound the walk by a budget proportional to the data; when
	// the threshold is too loose for pruning to pay, fall back to an exact
	// scan over the distinct codes.
	budget := 2 * (len(s.groups) + s.NodeCount() + 16)
	if !s.walkIterative(sr, q, h, budget) {
		sr.Stats.NodesVisited = 0
		for _, g := range s.groups {
			if len(g.ids) == 0 {
				continue // deleted code
			}
			sr.Stats.DistanceComputations++
			sr.Stats.LeavesChecked++
			if _, ok := q.DistanceWithin(g.code, h); ok {
				emitGroup(g)
			}
		}
		return GroupView{}, nil
	}
	for _, g := range sr.found {
		emitGroup(g)
	}
	return GroupView{}, nil
}

// prepareStatic (re)sizes the searcher's static scratch for the index's
// current node counts and advances the memo epoch.
func (sr *Searcher) prepareStatic(s *StaticIndex) {
	if len(sr.memo) < s.levels {
		sr.memo = append(sr.memo, make([][]uint32, s.levels-len(sr.memo))...)
	}
	for l := 0; l < s.levels; l++ {
		if len(sr.memo[l]) < len(s.segs[l]) {
			sr.memo[l] = append(sr.memo[l], make([]uint32, len(s.segs[l])-len(sr.memo[l]))...)
		}
	}
	if len(sr.qsegs) < s.levels {
		sr.qsegs = make([]uint64, s.levels)
	}
	if len(sr.path) < s.levels {
		sr.path = make([]uint64, s.levels)
	}
	sr.epoch++
	if sr.epoch >= 1<<25 {
		// The packed memo entries hold epoch<<7|dist in 32 bits; on epoch
		// wrap, clear the tables once and restart.
		for l := range sr.memo {
			for i := range sr.memo[l] {
				sr.memo[l][i] = 0
			}
		}
		sr.epoch = 1
	}
}

// walkIterative runs the pruned layered-graph DFS on the searcher's scratch.
// It reports false when the work budget is exhausted, leaving sr.found
// untouched for the caller's fallback; on success sr.found holds the
// verified leaf groups.
func (s *StaticIndex) walkIterative(sr *Searcher, q bitvec.Code, h int, budget int) bool {
	sr.prepareStatic(s)
	for l := 0; l < s.levels; l++ {
		sr.qsegs[l] = staticSegKey(q, s.bounds[l][0], s.bounds[l][1])
	}
	sr.found = sr.found[:0]
	stack := sr.stack[:0]
	for nid := len(s.segs[0]) - 1; nid >= 0; nid-- {
		stack = append(stack, sframe{level: 0, nid: int32(nid)})
	}
	lastLevel := int32(s.levels - 1)
	markBase := sr.epoch << 7
	visited := 0
	ok := true
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		if visited > budget {
			ok = false
			break
		}
		l, nid := fr.level, fr.nid
		// Memoized node distance: one XOR+popcount per distinct segment
		// value per query, shared by every code traversing the node.
		var nd int32
		if m := sr.memo[l][nid]; m>>7 == sr.epoch {
			nd = int32(m&127) - 1
		} else {
			sr.Stats.DistanceComputations++
			nd = int32(bits.OnesCount64(s.segs[l][nid] ^ sr.qsegs[l]))
			sr.memo[l][nid] = markBase | uint32(nd+1)
		}
		d := fr.dist + nd
		if d > int32(h) {
			continue
		}
		sr.path[l] = s.segs[l][nid]
		if l == lastLevel {
			// Assemble the candidate code and verify it exists, which
			// filters the spurious paths a merged-layer graph can contain.
			sr.Stats.LeavesChecked++
			if s.byCode64 != nil {
				if g, okk := s.byCode64[s.assemble64(sr.path)]; okk {
					sr.found = append(sr.found, g)
				}
			} else if g := s.lookupAssembled(sr); g != nil {
				sr.found = append(sr.found, g)
			}
			continue
		}
		for _, next := range s.adj[l][nid] {
			stack = append(stack, sframe{level: l + 1, nid: next, dist: d})
		}
	}
	sr.stack = stack[:0]
	sr.Stats.NodesVisited += visited
	return ok
}

// lookupAssembled assembles the multi-word code on sr.path into scratch
// words, builds its map key in a reused byte buffer, and resolves the leaf
// group — the allocation-free equivalent of byCode[assemble(path).Key()].
func (s *StaticIndex) lookupAssembled(sr *Searcher) *leafGroup {
	nw := (s.length + 63) / 64
	if len(sr.asmWords) < nw {
		sr.asmWords = make([]uint64, nw)
	}
	words := sr.asmWords[:nw]
	for i := range words {
		words[i] = 0
	}
	used := 0
	for l := 0; l < s.levels; l++ {
		w := s.bounds[l][1]
		lv := sr.path[l] << uint(64-w)
		hi, off := used/64, uint(used%64)
		words[hi] |= lv >> off
		if int(off)+w > 64 {
			words[hi+1] |= lv << (64 - off)
		}
		used += w
	}
	// Key layout must match bitvec.Code.Key: big-endian words then length.
	// Codes up to 256 bits key through a stack buffer; longer ones reuse the
	// searcher's scratch. Either way the map probe's string conversion stays
	// off the heap (the compiler's map[string(bytes)] optimization), so no
	// per-query allocation happens on this path.
	if nw <= 4 {
		var stack [4*8 + 1]byte
		for i, w := range words {
			binary.BigEndian.PutUint64(stack[i*8:], w)
		}
		stack[nw*8] = byte(s.length)
		return s.byCode[string(stack[:nw*8+1])]
	}
	if cap(sr.keyBuf) < nw*8+1 {
		sr.keyBuf = make([]byte, nw*8+1)
	}
	buf := sr.keyBuf[:nw*8+1]
	for i, w := range words {
		binary.BigEndian.PutUint64(buf[i*8:], w)
	}
	buf[nw*8] = byte(s.length)
	return s.byCode[string(buf)]
}

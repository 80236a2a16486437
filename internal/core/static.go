package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"haindex/internal/bitvec"
)

// StaticIndex is the Static HA-Index of Section 4.3: binary codes are cut
// into fixed-length contiguous segments, each level of the index holds the
// distinct segment values observed at that offset, and each code is an
// undirected path through one node per level (Figure 2). Because many codes
// share segment values, the Hamming distance between the query and a segment
// value is computed once per query and reused by every code traversing that
// node — the sharing that removes the Radix-Tree's prefix sensitivity for
// aligned substrings.
type StaticIndex struct {
	length   int
	segWidth int
	levels   int
	bounds   [][2]int

	// nodes[l] maps a level-l segment value to its node id; segs[l] is the
	// inverse. adj[l][node] lists the level-(l+1) node ids reachable from it.
	nodes []map[uint64]int32
	segs  [][]uint64
	adj   [][][]int32

	// byCode maps a full code to the ids of its tuples; paths assembled from
	// the layered graph are verified against it, so merged nodes can never
	// produce false positives. byCode64 is the allocation-free fast path
	// for codes up to 64 bits; groups lists the entries for fallback scans.
	byCode   map[string]*leafGroup
	byCode64 map[uint64]*leafGroup
	groups   []*leafGroup
	n        int
}

// BuildStatic builds a Static HA-Index with the given segment width (0
// selects 8 bits). ids default to positions when nil.
func BuildStatic(codes []bitvec.Code, ids []int, segWidth int) *StaticIndex {
	if len(codes) == 0 {
		panic("core: BuildStatic over empty dataset")
	}
	length := codes[0].Len()
	if segWidth <= 0 {
		segWidth = 8
	}
	if segWidth > 64 {
		panic(fmt.Sprintf("core: segment width %d exceeds 64", segWidth))
	}
	levels := (length + segWidth - 1) / segWidth
	s := &StaticIndex{
		length:   length,
		segWidth: segWidth,
		levels:   levels,
		bounds:   make([][2]int, levels),
		nodes:    make([]map[uint64]int32, levels),
		segs:     make([][]uint64, levels),
		adj:      make([][][]int32, levels),
		byCode:   make(map[string]*leafGroup),
	}
	if length <= 64 {
		s.byCode64 = make(map[uint64]*leafGroup)
	}
	at := 0
	for l := 0; l < levels; l++ {
		w := segWidth
		if at+w > length {
			w = length - at
		}
		s.bounds[l] = [2]int{at, w}
		s.nodes[l] = make(map[uint64]int32)
		at += w
	}
	for i, c := range codes {
		id := i
		if ids != nil {
			id = ids[i]
		}
		s.Insert(id, c)
	}
	return s
}

// Insert adds a tuple, creating segment nodes and path edges as needed.
func (s *StaticIndex) Insert(id int, c bitvec.Code) {
	if c.Len() != s.length {
		panic(fmt.Sprintf("core: inserting %d-bit code into %d-bit static index", c.Len(), s.length))
	}
	key := c.Key()
	g := s.byCode[key]
	if g == nil {
		g = &leafGroup{code: c}
		s.byCode[key] = g
		if s.byCode64 != nil {
			s.byCode64[c.Words()[0]] = g
		}
		s.groups = append(s.groups, g)
		prev := int32(-1)
		for l := 0; l < s.levels; l++ {
			from, w := s.bounds[l][0], s.bounds[l][1]
			val := staticSegKey(c, from, w)
			nid, ok := s.nodes[l][val]
			if !ok {
				nid = int32(len(s.segs[l]))
				s.nodes[l][val] = nid
				s.segs[l] = append(s.segs[l], val)
				if l < s.levels-1 {
					s.adj[l] = append(s.adj[l], nil)
				}
			}
			if l > 0 {
				s.addEdge(l-1, prev, nid)
			}
			prev = nid
		}
	}
	g.ids = append(g.ids, id)
	s.n++
}

func (s *StaticIndex) addEdge(level int, from, to int32) {
	lst := s.adj[level][from]
	i := sort.Search(len(lst), func(j int) bool { return lst[j] >= to })
	if i < len(lst) && lst[i] == to {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = to
	s.adj[level][from] = lst
}

// Delete removes the tuple with the given id and code. Segment nodes and
// edges are retained (they may serve other codes); empty codes are dropped
// from the verification map, so stale paths are filtered at query time. It
// reports whether a tuple was removed.
func (s *StaticIndex) Delete(id int, c bitvec.Code) bool {
	key := c.Key()
	g, ok := s.byCode[key]
	if !ok {
		return false
	}
	for i, v := range g.ids {
		if v == id {
			g.ids = append(g.ids[:i], g.ids[i+1:]...)
			s.n--
			if len(g.ids) == 0 {
				delete(s.byCode, key)
				if s.byCode64 != nil {
					delete(s.byCode64, c.Words()[0])
				}
			}
			return true
		}
	}
	return false
}

// staticSegKey extracts the segment [from, from+width) as a uint64 (width
// <= 64 guaranteed by construction) with word-aligned shift/mask extraction:
// at most two word reads instead of one shift-or per bit.
func staticSegKey(c bitvec.Code, from, width int) uint64 {
	words := c.Words()
	wi := from / 64
	off := uint(from % 64)
	v := words[wi] << off
	if off != 0 && wi+1 < len(words) {
		v |= words[wi+1] >> (64 - off)
	}
	return v >> uint(64-width)
}

// Search returns the ids of all tuples within Hamming distance h of q. Per
// query, the distance between q's level-l segment and each distinct segment
// value is computed at most once (memoized); a depth-first walk over the
// layered graph prunes any path whose partial distance exceeds h, and the
// assembled full code of a surviving path is verified against the code map,
// which filters the spurious paths a merged-layer graph can contain.
//
// Hot paths should reuse a PointerSearcher, whose Stats report the work.
func (s *StaticIndex) Search(q bitvec.Code, h int) []int {
	return searchInto(s, q, h, new(SearchStats))
}

// SearchInto is Search adding its work to stats; it does not mutate the
// index and is safe for concurrent use on a read-only index.
func (s *StaticIndex) SearchInto(q bitvec.Code, h int, stats *SearchStats) []int {
	return searchInto(s, q, h, stats)
}

// assemble64 packs per-level segment values into the single word of a
// <=64-bit code (left-aligned, as bitvec stores it).
func (s *StaticIndex) assemble64(path []uint64) uint64 {
	var w uint64
	used := 0
	for l, v := range path {
		width := s.bounds[l][1]
		w |= v << uint(64-used-width)
		used += width
	}
	return w
}

// Len returns the number of indexed tuples.
func (s *StaticIndex) Len() int { return s.n }

// Length returns the code length L in bits.
func (s *StaticIndex) Length() int { return s.length }

// NodeCount returns the number of segment nodes across levels.
func (s *StaticIndex) NodeCount() int {
	n := 0
	for _, lv := range s.segs {
		n += len(lv)
	}
	return n
}

// EdgeCount returns the number of level-to-level edges.
func (s *StaticIndex) EdgeCount() int {
	n := 0
	for _, lv := range s.adj {
		for _, lst := range lv {
			n += len(lst)
		}
	}
	return n
}

// SizeBytes returns the approximate in-memory footprint.
func (s *StaticIndex) SizeBytes() int {
	sz := 0
	for l := 0; l < s.levels; l++ {
		sz += len(s.segs[l]) * 8
		sz += len(s.nodes[l]) * 16
	}
	for _, lv := range s.adj {
		for _, lst := range lv {
			sz += 24 + 4*len(lst)
		}
	}
	for _, g := range s.byCode {
		sz += 48 + g.code.SizeBytes() + 8*len(g.ids)
	}
	return sz
}

// searchPointer implements pointerIndex for the Static HA-Index: the
// budgeted layered-graph walk of Search, driven by an explicit stack and
// epoch-reset memo tables instead of a per-query recursive closure.
func (s *StaticIndex) searchPointer(ps *PointerSearcher, q bitvec.Code, h int) {
	if q.Len() != s.length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit static index", q.Len(), s.length))
	}
	// The merged-layer graph can contain far more qualifying paths than real
	// codes once h stops pruning (spurious paths are only filtered at
	// assembly). Bound the walk by a budget proportional to the data; when
	// the threshold is too loose for pruning to pay, fall back to an exact
	// scan over the distinct codes.
	budget := 2 * (len(s.groups) + s.NodeCount() + 16)
	if s.walkIterative(ps, q, h, budget) {
		return
	}
	ps.Stats.NodesVisited = 0
	ps.found = ps.found[:0]
	for _, g := range s.groups {
		if len(g.ids) == 0 {
			continue // deleted code
		}
		ps.Stats.DistanceComputations++
		ps.Stats.LeavesChecked++
		if _, ok := q.DistanceWithin(g.code, h); ok {
			ps.found = append(ps.found, g)
		}
	}
}

// prepareStatic (re)sizes the searcher's static scratch for the index's
// current node counts and advances the memo epoch.
func (sr *PointerSearcher) prepareStatic(s *StaticIndex) {
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
// It reports false when the work budget is exhausted, leaving a partial
// sr.found for the caller's fallback to discard; on success sr.found holds
// the verified leaf groups.
func (s *StaticIndex) walkIterative(sr *PointerSearcher, q bitvec.Code, h int, budget int) bool {
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
				if g, okk := s.byCode64[s.assemble64(sr.path[:s.levels])]; okk {
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
func (s *StaticIndex) lookupAssembled(sr *PointerSearcher) *leafGroup {
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

// sframe is one frame of the Static index's iterative depth-first walk: the
// node to expand and the Hamming distance accumulated over its ancestors.
type sframe struct {
	level int32
	nid   int32
	dist  int32
}

package core

import (
	"fmt"
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
// Hot paths and concurrent callers should reuse a Searcher, whose Stats
// report the work.
func (s *StaticIndex) Search(q bitvec.Code, h int) []int {
	return NewSearcher(s).Search(q, h)
}

// SearchCodes returns the distinct qualifying codes instead of ids.
func (s *StaticIndex) SearchCodes(q bitvec.Code, h int) []bitvec.Code {
	return NewSearcher(s).SearchCodes(q, h)
}

// SearchInto is Search with caller-owned statistics; it does not mutate the
// index and is safe for concurrent use on a read-only index. Callers issuing
// many queries should hold a Searcher instead, which reuses its scratch.
func (s *StaticIndex) SearchInto(q bitvec.Code, h int, stats *SearchStats) []int {
	sr := NewSearcher(s)
	out := sr.Search(q, h)
	*stats = sr.Stats
	return out
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

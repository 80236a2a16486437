// Package mih is the multi-index-hashing engine: Norouzi et al.'s exact
// Hamming search by substring pigeonhole, in the frozen structure-of-arrays
// form the rest of the serving stack expects (flat slabs mirroring
// core.Freeze's layout, so the arenas can later be mmap'd).
//
// The code's L bits are cut into `blocks` contiguous blocks and one table is
// built per combination of `matched` blocks, keyed on their concatenation.
// If q and c are within Hamming distance h, the pigeonhole principle puts at
// most floor(matched·h/blocks) of the differing bits into some combination
// (each differing bit lands in C(blocks-1, matched-1) of the C(blocks,
// matched) combinations, so the average combination carries h·matched/blocks
// of them and the minimum is at or below the floor of that). Probing every
// table with every key variant within that radius therefore finds every
// answer; candidates are verified by a short-circuiting distance check. At
// large thresholds this beats the HA-Index walk, whose pruning collapses —
// the regime internal/planner routes here.
//
// Unlike the hash-map baseline in internal/baseline, the frozen form keeps
// each table as a sorted run of distinct keys over a shared candidate arena,
// fronted by a radix directory on the keys' top bits: a probe reads its
// bucket's bounds and binary-searches the few keys inside, and a hit is a
// contiguous []int32 of group indexes into one distinct-code slab — the
// engine's own, or (FromGroups) the frozen HA-Index's leaf arena, aliased.
// Probing is bounded: past the radius where a table has fewer distinct keys
// than the query key has variants, Search walks the key run instead of
// enumerating. Search runs on a per-searcher Scratch (combination enumeration
// state plus an epoch-marked visited table), reports the qualifying groups as
// indexes into that slab, and is allocation-free on the steady path; the
// engine plugs into core.Searcher, SearchBatch, and TopK through
// core.AsIndex.
package mih

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// Options configures Build. The zero value selects sane defaults.
type Options struct {
	// Blocks is the number of contiguous bit blocks the code is cut into.
	// 0 picks Norouzi's substring-length heuristic: key width near
	// log2(n) bits, i.e. blocks ≈ L/log2(n), clamped to [ceil(L/64), 16].
	Blocks int
	// Matched is how many blocks each table keys on (C(Blocks, Matched)
	// tables). 0 selects 1 — single-block tables, the classic MIH layout.
	Matched int
}

// Index is the frozen multi-index-hashing engine. It is immutable and safe
// for any number of concurrent readers; per-query state lives in Scratch.
type Index struct {
	length  int // code length L in bits
	nw      int // words per code
	blocks  int
	matched int

	// Derived from (length, blocks, matched), never serialized.
	bounds [][2]int // per block: start bit, width
	combos [][]int  // per table: the matched block indexes
	widths []int    // per table: total key width in bits

	// Per-table sorted key directory over one shared candidate arena:
	// table t's distinct keys are keys[tabStart[t]:tabStart[t+1]], sorted
	// ascending; the key at global position p owns candidate group indexes
	// cands[candStart[p]:candStart[p+1]].
	tabStart  []int32
	keys      []uint64
	candStart []int32
	cands     []int32
	// Per-table radix directory over the key run: table t's directory is
	// dir[dirStart[t]:dirStart[t+1]], 2^b+1 global key positions for
	// b = ⌊log₂ K⌋ (K distinct keys, b capped at the key width), and the keys
	// whose top b bits read d are keys[dir[d]:dir[d+1]] of it.
	dir      []int32
	dirStart []int32
	// enumMax[t] is table t's crossover radius, derived from its key count:
	// up to it, enumerating key variants costs no more probes than the table
	// has distinct keys; past it Search walks the key run instead.
	enumMax []int

	// The distinct-code groups every table indexes into. shared marks slabs
	// that alias another index's arena (FromGroups) — the engine then owns
	// only its tables and must not outlive that arena.
	grp    core.GroupView
	shared bool
}

// Build constructs the engine over the codes; ids default to positions.
// Equal codes collapse into one group carrying every tuple id.
func Build(codes []bitvec.Code, ids []int, opts Options) (*Index, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("mih: empty dataset")
	}
	if ids != nil && len(ids) != len(codes) {
		return nil, fmt.Errorf("mih: %d ids for %d codes", len(ids), len(codes))
	}
	length := codes[0].Len()
	for i, c := range codes {
		if c.Len() != length {
			return nil, fmt.Errorf("mih: code %d is %d-bit, index is %d-bit", i, c.Len(), length)
		}
	}
	m, err := newIndex(length, len(codes), opts)
	if err != nil {
		return nil, err
	}
	// Group equal codes without hashing them: order the positions by (code,
	// position) and cut the order into runs. Groups land in code order, each
	// group's ids in input order.
	order := make([]int32, len(codes))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := codes[a].Compare(codes[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	m.grp.IDs = make([]int, len(codes))
	for i, p := range order {
		if i == 0 || !codes[p].Equal(codes[order[i-1]]) {
			m.grp.Codes = append(m.grp.Codes, codes[p].Words()...)
			m.grp.IDStart = append(m.grp.IDStart, int32(i))
		}
		m.grp.IDs[i] = int(p)
		if ids != nil {
			m.grp.IDs[i] = ids[p]
		}
	}
	m.grp.IDStart = append(m.grp.IDStart, int32(len(codes)))
	m.buildTables()
	return m, nil
}

// FromGroups builds the engine over a frozen HA-Index's leaf arena without
// copying it: the view's slabs already are MIH's group layout, so only the
// key tables are built and the codes and ids stay where they are (in the
// mapping, for an mmap'd index). The engine must not be searched once the
// view's owner is closed. An empty view yields an engine that matches nothing.
func FromGroups(v core.GroupView, opts Options) (*Index, error) {
	m, err := newIndex(v.Length, v.Count(), opts)
	if err != nil {
		return nil, err
	}
	m.grp, m.shared = v, true
	m.buildTables()
	return m, nil
}

// autoBlocks picks the block count for n codes of length bits: key width
// near log2(n) (Norouzi's substring-length heuristic — buckets then hold O(1)
// codes), clamped so every block fits a uint64 key and the table count stays
// modest. lg is ceil(log2 n)+1, the per-block key width aimed at; with
// matched > 1 a table's key concatenates `matched` blocks, so the target
// grows to lg·matched and the block count is scaled back by the same factor.
func autoBlocks(length, n, matched int) int {
	lg := 1
	for v := 1; v < n; v *= 2 {
		lg++
	}
	target := lg * matched
	b := (length + target/2) / target * matched
	if b < matched {
		b = matched
	}
	if min := (length + 63) / 64 * matched; b < min {
		b = min // widest matched blocks must concatenate into ≤ 64 key bits
	}
	if b > 16 {
		b = 16
	}
	if b > length {
		b = length
	}
	return b
}

// newIndex resolves the options against n codes, validates the parameters,
// and derives bounds, combos, and widths.
func newIndex(length, n int, opts Options) (*Index, error) {
	if length <= 0 {
		return nil, fmt.Errorf("mih: invalid code length %d", length)
	}
	blocks, matched := opts.Blocks, opts.Matched
	if matched == 0 {
		matched = 1
	}
	if blocks == 0 {
		blocks = autoBlocks(length, n, matched)
	}
	if blocks <= 0 || blocks > length {
		return nil, fmt.Errorf("mih: invalid block count %d for %d-bit codes", blocks, length)
	}
	if matched <= 0 || matched > blocks {
		return nil, fmt.Errorf("mih: invalid matched count %d of %d blocks", matched, blocks)
	}
	m := &Index{
		length:  length,
		nw:      (length + 63) / 64,
		blocks:  blocks,
		matched: matched,
		grp:     core.GroupView{Length: length},
	}
	// Nearly equal blocks, the first length%blocks one bit wider.
	base, extra := length/blocks, length%blocks
	at := 0
	for i := 0; i < blocks; i++ {
		w := base
		if i < extra {
			w++
		}
		m.bounds = append(m.bounds, [2]int{at, w})
		at += w
	}
	keyBits := 0
	for i := 0; i < matched; i++ {
		keyBits += m.bounds[i][1] // widest blocks come first
	}
	if keyBits > 64 {
		return nil, fmt.Errorf("mih: %d-bit combination keys exceed 64 bits", keyBits)
	}
	// All matched-element subsets of the blocks, one table per subset; the
	// count is bounded before enumerating so hostile codec parameters cannot
	// allocate unboundedly.
	nt, err := tableCount(blocks, matched)
	if err != nil {
		return nil, err
	}
	m.combos = make([][]int, 0, nt)
	combo := make([]int, matched)
	var rec func(start, at int)
	rec = func(start, at int) {
		if at == matched {
			m.combos = append(m.combos, append([]int(nil), combo...))
			return
		}
		for i := start; i < blocks; i++ {
			combo[at] = i
			rec(i+1, at+1)
		}
	}
	rec(0, 0)
	m.widths = make([]int, len(m.combos))
	for t, c := range m.combos {
		for _, b := range c {
			m.widths[t] += m.bounds[b][1]
		}
	}
	return m, nil
}

// tableCount computes C(blocks, matched), refusing configurations whose
// table count would be implausible.
func tableCount(blocks, matched int) (int, error) {
	c := 1
	for i := 0; i < matched; i++ {
		c = c * (blocks - i) / (i + 1)
		if c > 1<<16 {
			return 0, fmt.Errorf("mih: C(%d,%d) tables is implausible", blocks, matched)
		}
	}
	return c, nil
}

// buildTables fills the shared key/candidate arenas. Table t's candidates
// are every group ordered by its key in t — ties in group order — which is
// cands[t·ng:(t+1)·ng] as it stands; the distinct keys are counted before
// the key directory is allocated, so every slab is exactly as long as what
// it holds.
func (m *Index) buildTables() {
	ng := m.GroupCount()
	nt := len(m.combos)
	m.tabStart = make([]int32, nt+1)
	m.cands = make([]int32, nt*ng)
	sorted := make([]uint64, nt*ng) // each table's keys, beside its candidates
	tmpKeys, tmpGroups := make([]uint64, ng), make([]int32, ng)
	distinct := 0
	for t, combo := range m.combos {
		keys, groups := sorted[t*ng:(t+1)*ng], m.cands[t*ng:(t+1)*ng]
		for g := range keys {
			keys[g] = m.comboKey(m.grp.Codes[g*m.nw:(g+1)*m.nw], combo)
			groups[g] = int32(g)
		}
		sortKeys(keys, groups, tmpKeys, tmpGroups)
		m.tabStart[t] = int32(distinct)
		for i := range keys {
			if i == 0 || keys[i] != keys[i-1] {
				distinct++
			}
		}
	}
	m.tabStart[nt] = int32(distinct)
	m.keys = make([]uint64, 0, distinct)
	m.candStart = make([]int32, 0, distinct+1)
	for t := 0; t < nt; t++ {
		keys := sorted[t*ng : (t+1)*ng]
		for i, k := range keys {
			if i == 0 || k != keys[i-1] {
				m.keys = append(m.keys, k)
				m.candStart = append(m.candStart, int32(t*ng+i))
			}
		}
	}
	m.candStart = append(m.candStart, int32(len(m.cands)))
	m.setCrossovers()
	m.buildDirectory()
}

// buildDirectory sizes every table's radix directory from its distinct-key
// count K — 2^b+1 entries for b = ⌊log₂ K⌋, capped at the key width, so at
// most four bytes a key plus one entry — and fills it in one pass over the
// sorted run: entry d is the first key whose top b bits are at least d, the
// last entry the run's end.
func (m *Index) buildDirectory() {
	nt := len(m.combos)
	m.dirStart = make([]int32, nt+1)
	for t, w := range m.widths {
		b := min(max(bits.Len32(uint32(m.tabStart[t+1]-m.tabStart[t]))-1, 0), w)
		m.dirStart[t+1] = m.dirStart[t] + 1<<b + 1
	}
	m.dir = make([]int32, m.dirStart[nt])
	for t := range nt {
		d, shift := m.directory(t)
		at, end := 0, m.tabStart[t+1]
		for p := m.tabStart[t]; p < end; p++ {
			for top := int(m.keys[p] >> shift); at <= top; at++ {
				d[at] = p
			}
		}
		for ; at < len(d); at++ {
			d[at] = end
		}
	}
}

// directory returns table t's radix directory and the shift that takes a
// key to its bucket (the key width less the directory's b bits; a shift of
// 64 maps every key to bucket 0).
func (m *Index) directory(t int) ([]int32, uint) {
	d := m.dir[m.dirStart[t]:m.dirStart[t+1]]
	return d, uint(m.widths[t] - bits.TrailingZeros(uint(len(d)-1)))
}

// sortKeys sorts keys ascending in place, carrying groups along: a byte-wise
// least-significant-digit radix sort over the bits in which the keys differ,
// so a byte every key agrees on costs no pass (a 21-bit key sorts in three).
// It is stable: equal keys keep their order in groups. tmpKeys and tmpGroups
// are the passes' second buffers, at least as long as keys.
func sortKeys(keys []uint64, groups []int32, tmpKeys []uint64, tmpGroups []int32) {
	if len(keys) == 0 {
		return
	}
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	src, dst := keys, tmpKeys[:len(keys)]
	srcG, dstG := groups, tmpGroups[:len(keys)]
	for shift := 0; differ>>shift != 0; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [256]int32
		for _, k := range src {
			next[byte(k>>shift)]++
		}
		at := int32(0)
		for d, n := range next {
			next[d] = at
			at += n
		}
		for i, k := range src {
			d := byte(k >> shift)
			dst[next[d]], dstG[next[d]] = k, srcG[i]
			next[d]++
		}
		src, dst, srcG, dstG = dst, src, dstG, srcG
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(groups, srcG)
	}
}

// setCrossovers derives each table's crossover radius from its key count K:
// the largest r whose variant count V(w, r) = Σ_{k≤r} C(w, k) is at most K —
// past it, more binary searches than the run has keys to find. K < 2^31
// bounds every intermediate, so nothing overflows.
func (m *Index) setCrossovers() {
	m.enumMax = make([]int, len(m.combos))
	for t, w := range m.widths {
		k := uint64(m.tabStart[t+1] - m.tabStart[t])
		v, c, r := uint64(1), uint64(1), 0
		for r < w {
			c = c * uint64(w-r) / uint64(r+1) // C(w, r+1)
			if v+c > k {
				break
			}
			v += c
			r++
		}
		m.enumMax[t] = r
	}
}

// Probes returns the keys a select at threshold h examines, whatever the
// query: per table, the V(w, r) key variants it probes up to its crossover
// radius, its K distinct keys past it — what Search counts into
// NodesVisited. Candidate verifications come on top and depend on the data.
func (m *Index) Probes(h int) int {
	n := 0
	for t, w := range m.widths {
		r := min(m.Radius(h), w)
		if r > m.enumMax[t] {
			n += int(m.tabStart[t+1] - m.tabStart[t])
			continue
		}
		v, c := 1, 1 // V(w, r) ≤ K < 2^31 below the crossover
		for k := 0; k < r; k++ {
			c = c * (w - k) / (k + 1)
			v += c
		}
		n += v
	}
	return n
}

// segKey extracts the width-bit segment starting at bit `from` as a uint64,
// reading at most two words (codes store bit i at word i/64, shift 63-i%64).
func segKey(words []uint64, from, width int) uint64 {
	hi, off := from/64, uint(from%64)
	v := words[hi] << off
	if int(off)+width > 64 {
		v |= words[hi+1] >> (64 - off)
	}
	return v >> uint(64-width)
}

// comboKey concatenates the blocks selected by combo into one key.
func (m *Index) comboKey(words []uint64, combo []int) uint64 {
	var key uint64
	for _, b := range combo {
		from, width := m.bounds[b][0], m.bounds[b][1]
		key = key<<uint(width) | segKey(words, from, width)
	}
	return key
}

// Length returns the code length L in bits.
func (m *Index) Length() int { return m.length }

// Len returns the number of indexed tuples.
func (m *Index) Len() int { return len(m.grp.IDs) }

// Blocks returns the block count.
func (m *Index) Blocks() int { return m.blocks }

// Matched returns how many blocks each table keys on.
func (m *Index) Matched() int { return m.matched }

// Tables returns the table count C(Blocks, Matched).
func (m *Index) Tables() int { return len(m.combos) }

// GroupCount returns the number of indexed code groups.
func (m *Index) GroupCount() int { return m.grp.Count() }

// Radius returns the per-table probe radius at threshold h: the pigeonhole
// bound floor(matched·h/blocks).
func (m *Index) Radius(h int) int { return m.matched * h / m.blocks }

// SizeBytes returns the footprint of everything the engine reads, shared
// group slabs included. The distinct codes are stored once; each table adds
// only its sorted key run, its radix directory and candidate references —
// the flat-arena answer to the per-table code replicas the paper criticizes
// in Manku's layout.
func (m *Index) SizeBytes() int {
	return m.grp.SizeBytes() + 8*len(m.keys) + 4*(len(m.tabStart)+len(m.candStart)+len(m.cands)) + m.dirBytes()
}

// dirBytes returns the footprint of the tables' radix directories.
func (m *Index) dirBytes() int { return 4 * (len(m.dir) + len(m.dirStart)) }

// HeapBytes returns what the engine itself holds on the Go heap — its slabs
// by capacity, less any group slabs that alias another index's arena. The
// key tables and directories are allocated exactly, so over an aliased arena
// this is SizeBytes less the view's.
func (m *Index) HeapBytes() int {
	n := 8*cap(m.keys) + 4*(cap(m.tabStart)+cap(m.candStart)+cap(m.cands)+cap(m.dir)+cap(m.dirStart))
	if !m.shared {
		n += 8*(cap(m.grp.Codes)+cap(m.grp.IDs)) + 4*cap(m.grp.IDStart)
	}
	return n
}

// Tuples invokes fn for every (id, code) pair in the index.
func (m *Index) Tuples(fn func(id int, code bitvec.Code)) { m.grp.Tuples(fn) }

// Groups implements core.Engine: the distinct-code slab Search's group
// indexes point into.
func (m *Index) Groups() core.GroupView { return m.grp }

// NewScratch implements core.Engine.
func (m *Index) NewScratch() core.EngineScratch {
	return &Scratch{
		m:       m,
		visited: make([]uint32, m.GroupCount()),
		comb:    make([]int, 65),
	}
}

// Search is a convenience for tools and tests: a fresh-searcher, allocating
// select. Serving paths keep one core.NewSearcher(core.AsIndex(m)) per
// goroutine instead, whose scratch makes the steady state allocation-free.
func (m *Index) Search(q bitvec.Code, h int) []int {
	return core.NewSearcher(core.AsIndex(m)).SearchAppend(nil, q, h)
}

// Scratch is one searcher's mutable state: the iterative combination
// enumerator, the epoch-marked visited table that deduplicates candidate
// groups across tables, and the result slice of the search in progress.
// Not safe for concurrent use; the Index is.
type Scratch struct {
	m       *Index
	visited []uint32
	epoch   uint32
	comb    []int
	out     []int32
}

// Search implements core.EngineScratch: reach every table's keys within the
// pigeonhole radius of the query's key, verify their candidates once each,
// and append the qualifying groups to out. Up to the table's crossover
// radius the keys are reached by enumerating variants and probing each
// through the table's directory, past it by one XOR+popcount pass over the
// sorted run — the same keys either way. Probes and run keys examined count
// into stats.NodesVisited, candidate verifications into LeavesChecked and
// DistanceComputations.
func (s *Scratch) Search(q bitvec.Code, h int, stats *core.SearchStats, out []int32) []int32 {
	m := s.m
	if q.Len() != m.length {
		panic(fmt.Sprintf("mih: %d-bit query against %d-bit index", q.Len(), m.length))
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	s.out = out
	radius := m.matched * h / m.blocks
	qw := q.Words()
	for t, combo := range m.combos {
		key := m.comboKey(qw, combo)
		width := m.widths[t]
		r := radius
		if r > width {
			r = width
		}
		if r > m.enumMax[t] {
			lo, hi := m.tabStart[t], m.tabStart[t+1]
			stats.NodesVisited += int(hi - lo)
			for p := lo; p < hi; p++ {
				if bits.OnesCount64(m.keys[p]^key) <= r {
					s.verify(p, qw, h, stats)
				}
			}
			continue
		}
		dir, shift := m.directory(t)
		s.probe(dir, shift, key, qw, h, stats)
		// Key variants at exact flip-count k, for k = 1..r: the classic
		// iterative combination enumeration over the key's bit positions,
		// on preallocated scratch — no recursion, no closures.
		for k := 1; k <= r; k++ {
			comb := s.comb[:k]
			for i := range comb {
				comb[i] = i
			}
			for {
				var mask uint64
				for _, b := range comb {
					mask |= 1 << uint(b)
				}
				s.probe(dir, shift, key^mask, qw, h, stats)
				i := k - 1
				for i >= 0 && comb[i] == width-k+i {
					i--
				}
				if i < 0 {
					break
				}
				comb[i]++
				for j := i + 1; j < k; j++ {
					comb[j] = comb[j-1] + 1
				}
			}
		}
	}
	out, s.out = s.out, nil
	return out
}

// probe looks one key up in a table through its directory and, on a hit,
// verifies that key's candidates.
func (s *Scratch) probe(dir []int32, shift uint, key uint64, qw []uint64, h int, stats *core.SearchStats) {
	stats.NodesVisited++
	if p, ok := s.m.lookup(dir, shift, key); ok {
		s.verify(p, qw, h, stats)
	}
}

// lookup finds key's global position in the table whose directory is dir:
// the bucket of its top bits bounds a binary search over the few keys that
// share them.
func (m *Index) lookup(dir []int32, shift uint, key uint64) (int32, bool) {
	top := key >> shift
	i, j := dir[top], dir[top+1]
	end := j
	for i < j {
		mid := int32(uint32(i+j) >> 1)
		if m.keys[mid] < key {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i, i < end && m.keys[i] == key
}

// verify checks the candidates of the key at global position p against the
// full query, appending first-seen qualifying groups to s.out.
func (s *Scratch) verify(p int32, qw []uint64, h int, stats *core.SearchStats) {
	m := s.m
	nw := m.nw
	for _, gi := range m.cands[m.candStart[p]:m.candStart[p+1]] {
		if s.visited[gi] == s.epoch {
			continue
		}
		s.visited[gi] = s.epoch
		stats.LeavesChecked++
		stats.DistanceComputations++
		if distWithin(qw, m.grp.Codes[int(gi)*nw:(int(gi)+1)*nw], h) {
			s.out = append(s.out, gi)
		}
	}
}

// distWithin reports whether two word-aligned codes are within Hamming
// distance h, short-circuiting once the running count exceeds it.
func distWithin(qw, cw []uint64, h int) bool {
	sum := 0
	for i, w := range qw {
		sum += bits.OnesCount64(w ^ cw[i])
		if sum > h {
			return false
		}
	}
	return true
}

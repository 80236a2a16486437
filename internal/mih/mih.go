// Package mih is the multi-index-hashing engine: Norouzi et al.'s exact
// Hamming search by substring pigeonhole, in the frozen structure-of-arrays
// form the rest of the serving stack expects (flat slabs mirroring
// core.Freeze's layout, so the arenas can later be mmap'd).
//
// The code's L bits are cut into m contiguous blocks, one table per block
// keyed on that block's bits. Norouzi's tight pigeonhole split: write
// h+1 = m·r + a; if q and c are within Hamming distance h, then for any a
// tables searched at radius r and the other m−a at r−1, some table holds c's
// block within its radius of q's — otherwise the blocks would differ in at
// least Σ(r_t+1) = h+1 bits. The radii sum to h−m+1, none exceeds ⌊h/m⌋,
// and a table at radius −1 is not searched. Which a tables get the extra
// bit is chosen per query: those whose bucket under the query's own key is
// smallest, read off the exact-key lookups every table makes first.
// Candidates are verified by a short-circuiting distance check. At large
// thresholds this beats the HA-Index walk, whose pruning collapses — the
// regime internal/planner routes here.
//
// Unlike the hash-map baseline in internal/baseline, the frozen form keeps
// each table as a sorted run of distinct keys over a shared candidate arena,
// fronted by a radix directory on the keys' top bits: a probe reads its
// bucket's bounds and binary-searches the few keys inside, and a hit is a
// contiguous []int32 of group indexes into one distinct-code slab — the
// engine's own, or (FromGroups) the frozen HA-Index's leaf arena, aliased.
// Tables of up to 16-bit keys are built by counting, wider ones by a radix
// sort. Probing is bounded: past the radius where a table has fewer distinct
// keys than the query key has variants, Search walks the key run instead of
// enumerating. Search runs on a per-searcher Scratch (the per-table lookups
// and radii, the variant enumeration state, and an epoch-marked visited
// table), reports the qualifying groups as indexes into that slab, and is
// allocation-free on the steady path. The Index is a core.Engine, so
// core.Searcher, SearchBatch and core.TopKByRadius run over it directly.
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
	// Blocks is the number of contiguous bit blocks the code is cut into,
	// one table each. 0 picks Norouzi's substring length: ⌈log₂ n⌉-bit
	// keys, i.e. blocks ≈ L/⌈log₂ n⌉, clamped to [⌈L/64⌉, 16].
	Blocks int
}

// Index is the frozen multi-index-hashing engine. It is immutable and safe
// for any number of concurrent readers; per-query state lives in Scratch.
type Index struct {
	length int // code length L in bits
	nw     int // words per code

	// Derived from (length, blocks), never serialized: per block, and so
	// per table, its start bit and width.
	bounds [][2]int

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

// autoBlocks picks the block count for n codes of length bits: Norouzi's
// substring length of ⌈log₂ n⌉ key bits a block, so a table has about as
// many possible keys as there are codes and a bucket holds O(1) of them —
// rounded to the nearest count, and clamped so every block fits a uint64 key
// and there are at most 16 tables. 64-bit codes get 4 tables of 16 bits from
// 16,385 to 262,144 codes.
func autoBlocks(length, n int) int {
	lg := bits.Len(uint(max(n, 2) - 1)) // ⌈log₂ n⌉, at least 1
	b := max((length+lg/2)/lg, (length+63)/64)
	return min(b, 16, length)
}

// newIndex resolves the options against n codes, validates the parameters,
// and derives the block bounds.
func newIndex(length, n int, opts Options) (*Index, error) {
	if length <= 0 {
		return nil, fmt.Errorf("mih: invalid code length %d", length)
	}
	blocks := opts.Blocks
	if blocks == 0 {
		blocks = autoBlocks(length, n)
	}
	if blocks <= 0 || blocks > length {
		return nil, fmt.Errorf("mih: invalid block count %d for %d-bit codes", blocks, length)
	}
	m := &Index{
		length: length,
		nw:     (length + 63) / 64,
		grp:    core.GroupView{Length: length},
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
	if w := m.bounds[0][1]; w > 64 { // the widest block comes first
		return nil, fmt.Errorf("mih: %d-bit block keys exceed 64 bits", w)
	}
	return m, nil
}

// buildTables fills the shared key/candidate arenas. Table t's candidates
// are every group ordered by its key in t — ties in group order — at
// cands[t·ng:(t+1)·ng]; the distinct keys are counted before the key
// directory is allocated, so every slab is exactly as long as what it holds.
// Keys of at most 16 bits are counted into place while their key space is no
// more than four times the group count; wider ones are radix-sorted.
func (m *Index) buildTables() {
	ng, nt := m.GroupCount(), len(m.bounds)
	m.tabStart = make([]int32, nt+1)
	m.cands = make([]int32, nt*ng)
	if w := m.bounds[0][1]; w <= 16 && 1<<w <= 4*ng {
		m.countTables()
	} else {
		m.sortTables()
	}
	m.tabStart[nt] = int32(len(m.keys))
	m.candStart = append(m.candStart, int32(len(m.cands)))
	m.setCrossovers()
	m.buildDirectory()
}

// countTables builds tables of at most 16-bit keys in two steps: one pass
// over the code slab counts every table's keys; then, per table, a prefix
// sum over its counts lays out the distinct keys and each one's first
// candidate slot, and a counting scatter of the groups in order places the
// candidates.
func (m *Index) countTables() {
	ng, span := m.GroupCount(), 1<<m.bounds[0][1]
	counts := make([]int32, len(m.bounds)*span)
	for g := range ng {
		words := m.grp.Codes[g*m.nw : (g+1)*m.nw]
		for t, b := range m.bounds {
			counts[t*span+int(segKey(words, b[0], b[1]))]++
		}
	}
	distinct := 0
	for _, c := range counts {
		if c != 0 {
			distinct++
		}
	}
	m.keys = make([]uint64, 0, distinct)
	m.candStart = make([]int32, 0, distinct+1)
	for t, b := range m.bounds {
		m.tabStart[t] = int32(len(m.keys))
		next, at := counts[t*span:(t+1)*span], int32(t*ng)
		for k, c := range next {
			if c != 0 {
				m.keys = append(m.keys, uint64(k))
				m.candStart = append(m.candStart, at)
			}
			next[k], at = at, at+c
		}
		for g := range ng {
			k := segKey(m.grp.Codes[g*m.nw:(g+1)*m.nw], b[0], b[1])
			m.cands[next[k]] = int32(g)
			next[k]++
		}
	}
}

// sortTables builds tables of wider keys: each table's groups are
// radix-sorted by key straight into its cands range, beside a slab of their
// keys, and the sorted runs are compacted into the distinct keys.
func (m *Index) sortTables() {
	ng := m.GroupCount()
	sorted := make([]uint64, len(m.bounds)*ng) // each table's keys, beside its candidates
	tmpKeys, tmpGroups := make([]uint64, ng), make([]int32, ng)
	distinct := 0
	for t, b := range m.bounds {
		keys, groups := sorted[t*ng:(t+1)*ng], m.cands[t*ng:(t+1)*ng]
		for g := range keys {
			keys[g] = segKey(m.grp.Codes[g*m.nw:(g+1)*m.nw], b[0], b[1])
			groups[g] = int32(g)
		}
		sortKeys(keys, groups, tmpKeys, tmpGroups)
		for i := range keys {
			if i == 0 || keys[i] != keys[i-1] {
				distinct++
			}
		}
	}
	m.keys = make([]uint64, 0, distinct)
	m.candStart = make([]int32, 0, distinct+1)
	for t := range m.bounds {
		m.tabStart[t] = int32(len(m.keys))
		keys := sorted[t*ng : (t+1)*ng]
		for i, k := range keys {
			if i == 0 || k != keys[i-1] {
				m.keys = append(m.keys, k)
				m.candStart = append(m.candStart, int32(t*ng+i))
			}
		}
	}
}

// buildDirectory sizes every table's radix directory from its distinct-key
// count K — 2^b+1 entries for b = ⌊log₂ K⌋, capped at the key width, so at
// most four bytes a key plus one entry — and fills it in one pass over the
// sorted run: entry d is the first key whose top b bits are at least d, the
// last entry the run's end.
func (m *Index) buildDirectory() {
	nt := len(m.bounds)
	m.dirStart = make([]int32, nt+1)
	for t, bd := range m.bounds {
		b := min(max(bits.Len32(uint32(m.tabStart[t+1]-m.tabStart[t]))-1, 0), bd[1])
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
	return d, uint(m.bounds[t][1] - bits.TrailingZeros(uint(len(d)-1)))
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
	m.enumMax = make([]int, len(m.bounds))
	for t, b := range m.bounds {
		w, k := b[1], uint64(m.tabStart[t+1]-m.tabStart[t])
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

// Probes returns the keys a select at threshold h examines: per table, the
// exact-key lookup every select makes, then the other V(w, r) − 1 key
// variants within the table's radius up to its crossover, or its K distinct
// keys past it — what Search counts into NodesVisited. Which tables get the
// split's larger radius depends on the query, so Probes gives them to the
// tables where it costs the most: it is exact when the larger radius costs
// every table the same (equal block widths, each table on one side of its
// crossover at both radii) and an upper bound otherwise. Candidate
// verifications come on top and depend on the data.
func (m *Index) Probes(h int) int {
	r, a := split(h, len(m.bounds))
	n, gain := 0, make([]int, len(m.bounds))
	for t := range m.bounds {
		lo := m.tableProbes(t, r-1)
		n, gain[t] = n+lo, m.tableProbes(t, r)-lo
	}
	slices.Sort(gain)
	for _, g := range gain[len(gain)-a:] {
		n += g
	}
	return n
}

// tableProbes is what a select examines in table t at radius r: the one
// exact-key lookup below radius 1, V(w, r) key variants up to the table's
// crossover, and the lookup plus its K distinct keys past it.
func (m *Index) tableProbes(t, r int) int {
	w := m.bounds[t][1]
	if r = min(r, w); r > m.enumMax[t] {
		return 1 + int(m.tabStart[t+1]-m.tabStart[t])
	}
	v, c := 1, 1 // V(w, r) ≤ K < 2^31 below the crossover
	for k := 0; k < r; k++ {
		c = c * (w - k) / (k + 1)
		v += c
	}
	return v
}

// split is Norouzi's tight pigeonhole split of threshold h over m tables:
// with h+1 = m·r + a, a tables are searched at radius r and the other m−a
// at r−1. The radii sum to h−m+1 and none exceeds ⌊h/m⌋.
func split(h, m int) (r, a int) { return (h + 1) / m, (h + 1) % m }

// assignRadii fills rad with each table's radius at threshold h, given the
// size of each table's bucket under the query's own key: split's a larger
// radii go to the a smallest buckets, ties to the lower table.
func assignRadii(rad []int, size []int32, h int) {
	r, a := split(h, len(rad))
	for t := range rad {
		rad[t] = r - 1
	}
	for ; a > 0; a-- {
		best := -1
		for t, rt := range rad {
			if rt < r && (best < 0 || size[t] < size[best]) {
				best = t
			}
		}
		rad[best] = r
	}
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

// Length returns the code length L in bits.
func (m *Index) Length() int { return m.length }

// Len returns the number of indexed tuples.
func (m *Index) Len() int { return len(m.grp.IDs) }

// Blocks returns the block count, which is also the table count.
func (m *Index) Blocks() int { return len(m.bounds) }

// GroupCount returns the number of indexed code groups.
func (m *Index) GroupCount() int { return m.grp.Count() }

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

// NewScratch implements core.Engine.
func (m *Index) NewScratch() core.EngineScratch {
	nt := len(m.bounds)
	return &Scratch{
		m:       m,
		visited: make([]uint32, m.GroupCount()),
		comb:    make([]int, 65),
		key:     make([]uint64, nt),
		at:      make([]int32, nt),
		size:    make([]int32, nt),
		rad:     make([]int, nt),
	}
}

// Scratch is one searcher's mutable state: per table, the query's key, its
// exact-key lookup and bucket size, and its radius; the iterative
// combination enumerator; the epoch-marked visited table that deduplicates
// candidate groups across tables; and the result slice of the search in
// progress. Not safe for concurrent use; the Index is.
type Scratch struct {
	m       *Index
	visited []uint32
	epoch   uint32
	comb    []int
	key     []uint64
	at      []int32 // the key's global position, −1 when the table lacks it
	size    []int32
	rad     []int
	out     []int32
}

// Search implements core.EngineScratch: look every table up under the
// query's own key, split the radii by the sizes of those buckets, reach each
// table's keys within its radius of the query's, verify their candidates
// once each, and append the qualifying groups to out. Up to the table's
// crossover radius the keys are reached by enumerating variants and probing
// each through the table's directory, past it by one XOR+popcount pass over
// the sorted run — the same keys either way. Lookups, probes and run keys
// examined count into stats.NodesVisited, candidate verifications into
// LeavesChecked and DistanceComputations.
func (s *Scratch) Search(q bitvec.Code, h int, stats *core.SearchStats, out []int32) []int32 {
	m := s.m
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	s.out = out
	qw := q.Words()
	for t, b := range m.bounds {
		dir, shift := m.directory(t)
		key := segKey(qw, b[0], b[1])
		p, ok := m.lookup(dir, shift, key)
		s.key[t], s.at[t], s.size[t] = key, -1, 0
		if ok {
			s.at[t], s.size[t] = p, m.candStart[p+1]-m.candStart[p]
		}
	}
	stats.NodesVisited += len(m.bounds)
	assignRadii(s.rad, s.size, h)
	for t, r := range s.rad {
		if r < 0 {
			continue
		}
		key, width := s.key[t], m.bounds[t][1]
		r = min(r, width)
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
		if p := s.at[t]; p >= 0 {
			s.verify(p, qw, h, stats)
		}
		dir, shift := m.directory(t)
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

// Groups implements core.Engine: the distinct-code slab Search's group
// indexes point into.
func (m *Index) Groups() core.GroupView { return m.grp }

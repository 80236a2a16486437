package core

import (
	"fmt"
	"math/bits"
	"slices"

	"haindex/internal/bitvec"
)

// FrozenIndex is the compiled, read-only form of the Dynamic HA-Index: the
// pointer hierarchy flattened into structure-of-arrays storage so H-Search
// walks contiguous memory instead of chasing *dnode children.
//
// Nodes are numbered in level (BFS) order — roots are ids [0, nRoots), every
// child id is strictly greater than its parent's — and their edges are CSR
// slices: node i's children are childList[childStart[i]:childStart[i+1]] and
// its leaf groups leafList[leafStart[i]:leafStart[i+1]]. The per-node
// residual pattern words (mask then bits&mask, the same layout dnode.res
// uses) are packed back to back in resSlab at offset i*2*nw, and the node's
// full pattern mask (for the leaf-level DistanceExcluding) in maskSlab at
// i*nw. Leaf codes sit word-packed in Gray (hierarchy) order in codeSlab,
// tuple ids in idSlab with idStart offsets. The walks report qualifying
// groups as indexes into that leaf arena, and the Searcher resolves ids or
// codes from it, so no resident groups array is ever materialized.
//
// A FrozenIndex is immutable: it has no insert buffer and no Insert/Delete.
// It implements Index, so Searcher, SearchBatch, SearchCodesBatch, and TopK
// all run over it.
type FrozenIndex struct {
	length int // code length L in bits
	n      int // number of tuples
	nw     int // words per code

	// rootIDs lists the hierarchy roots. An index compiled by Freeze or built
	// by BuildFrozen has the contiguous roots [0, len(rootIDs)); a streamed
	// arena (FrozenStreamWriter) or a Forest concatenates hierarchies, so its
	// roots are scattered. Either way every child id strictly exceeds its parent's,
	// which is the invariant the walks and decoders rely on.
	rootIDs []int32

	childStart []int32
	childList  []int32
	leafStart  []int32
	leafList   []int32
	resSlab    []uint64 // 2*nw words per node: residual mask, then bits&mask
	maskSlab   []uint64 // nw words per node: full pattern mask

	codeSlab  []uint64 // nw words per leaf group, Gray order
	idStart   []int32  // nGroups+1 offsets into idSlab
	idSlab    []int
	topLeaves []int32 // leaf groups linked at the top level

	// mapping, when non-nil, is the mmap'd file region every slab above
	// aliases; munmap releases it. The slabs are then read-only: nothing may
	// write through them (see bitvec.FromWordsShared).
	mapping []byte
	munmap  func([]byte) error
}

// Freeze compiles a Dynamic HA-Index into its flat, read-only form. A
// non-empty insert buffer is flushed into the hierarchy first, so frozen
// search answers exactly what the pointer walk would — buffered tuples are
// never dropped. The input index remains valid (and flushed) afterwards.
func Freeze(x *DynamicIndex) *FrozenIndex {
	x.Flush()
	nw := (x.length + 63) / 64

	// Leaf groups in hierarchy order: depth-first under the Gray-built
	// roots, then the top-level leaves — one contiguous Gray layout.
	srcGroups := make([]*leafGroup, 0, len(x.byCode))
	x.walkGroups(func(g *leafGroup) { srcGroups = append(srcGroups, g) })
	gidx := make(map[*leafGroup]int32, len(srcGroups))
	for i, g := range srcGroups {
		gidx[g] = int32(i)
	}

	// Level-order the nodes: BFS from the roots, so children are contiguous
	// in childList and every child id exceeds its parent's.
	nodes := append([]*dnode(nil), x.roots...)
	for at := 0; at < len(nodes); at++ {
		nodes = append(nodes, nodes[at].children...)
	}
	nidOf := make(map[*dnode]int32, len(nodes))
	for i, n := range nodes {
		nidOf[n] = int32(i)
	}

	f := &FrozenIndex{
		length:  x.length,
		n:       x.n,
		nw:      nw,
		rootIDs: make([]int32, len(x.roots)),
	}
	for i := range f.rootIDs {
		f.rootIDs[i] = int32(i)
	}

	// Leaf arena.
	nIDs := 0
	for _, g := range srcGroups {
		nIDs += len(g.ids)
	}
	f.codeSlab = make([]uint64, len(srcGroups)*nw)
	f.idSlab = make([]int, 0, nIDs)
	f.idStart = make([]int32, len(srcGroups)+1)
	for i, g := range srcGroups {
		copy(f.codeSlab[i*nw:(i+1)*nw], g.code.Words())
		f.idStart[i] = int32(len(f.idSlab))
		f.idSlab = append(f.idSlab, g.ids...)
	}
	f.idStart[len(srcGroups)] = int32(len(f.idSlab))
	f.topLeaves = make([]int32, len(x.topLeaves))
	for i, g := range x.topLeaves {
		f.topLeaves[i] = gidx[g]
	}

	// Node arena.
	nn := len(nodes)
	f.childStart = make([]int32, nn+1)
	f.leafStart = make([]int32, nn+1)
	f.resSlab = make([]uint64, nn*2*nw)
	f.maskSlab = make([]uint64, nn*nw)
	for i, n := range nodes {
		f.childStart[i] = int32(len(f.childList))
		for _, c := range n.children {
			f.childList = append(f.childList, nidOf[c])
		}
		f.leafStart[i] = int32(len(f.leafList))
		for _, g := range n.leaves {
			f.leafList = append(f.leafList, gidx[g])
		}
		copy(f.resSlab[i*2*nw:(i+1)*2*nw], n.res)
		copy(f.maskSlab[i*nw:(i+1)*nw], n.pat.Mask().Words())
	}
	f.childStart[nn] = int32(len(f.childList))
	f.leafStart[nn] = int32(len(f.leafList))
	return f
}

// walkGroups visits every leaf group exactly once in hierarchy order
// (roots depth-first, then top-level leaves): the order Freeze numbers them.
func (x *DynamicIndex) walkGroups(fn func(*leafGroup)) {
	var rec func(n *dnode)
	rec = func(n *dnode) {
		for _, c := range n.children {
			rec(c)
		}
		for _, g := range n.leaves {
			fn(g)
		}
	}
	for _, r := range x.roots {
		rec(r)
	}
	for _, g := range x.topLeaves {
		fn(g)
	}
}

// Len returns the number of indexed tuples.
func (f *FrozenIndex) Len() int { return f.n }

// Length returns the code length L in bits.
func (f *FrozenIndex) Length() int { return f.length }

// NodeCount returns the number of internal nodes.
func (f *FrozenIndex) NodeCount() int { return len(f.childStart) - 1 }

// EdgeCount returns the number of hierarchy edges (node→node and node→leaf).
func (f *FrozenIndex) EdgeCount() int { return len(f.childList) + len(f.leafList) }

// GroupCount returns the number of distinct indexed codes.
func (f *FrozenIndex) GroupCount() int {
	if len(f.idStart) == 0 {
		return 0
	}
	return len(f.idStart) - 1
}

// SizeBytes returns the full footprint of the arena: every slab and CSR
// array, resident or mapped. Unlike the pointer index there are no per-node
// allocations or map buckets to estimate.
func (f *FrozenIndex) SizeBytes() int {
	sz := 8 * (len(f.resSlab) + len(f.maskSlab) + len(f.codeSlab) + len(f.idSlab))
	sz += 4 * (len(f.childStart) + len(f.childList) + len(f.leafStart) + len(f.leafList) + len(f.idStart) + len(f.topLeaves) + len(f.rootIDs))
	return sz
}

// MappedBytes returns the size of the mmap'd file region backing the arena,
// or 0 when every slab lives on the Go heap.
func (f *FrozenIndex) MappedBytes() int { return len(f.mapping) }

// HeapBytes returns the heap-resident share of the arena: SizeBytes for an
// eagerly decoded index, zero for an mmap'd one — every array, down to the
// root list, aliases the page-cache-backed mapping.
func (f *FrozenIndex) HeapBytes() int {
	if f.mapping != nil {
		return 0
	}
	return f.SizeBytes()
}

// Close releases the mmap'd region backing a mapped arena; it is a no-op for
// a heap-resident index. The index must not be searched after Close — the
// slabs alias the released mapping.
func (f *FrozenIndex) Close() error {
	if f.mapping == nil {
		return nil
	}
	m := f.mapping
	f.mapping = nil
	if f.munmap == nil {
		return nil
	}
	return f.munmap(m)
}

// Codes returns the distinct indexed codes in arena order.
func (f *FrozenIndex) Codes() []bitvec.Code {
	v := f.Groups()
	out := make([]bitvec.Code, v.Count())
	for i := range out {
		out[i] = v.Code(i)
	}
	return out
}

// Tuples invokes fn for every (id, code) pair in the index.
func (f *FrozenIndex) Tuples(fn func(id int, code bitvec.Code)) { f.Groups().Tuples(fn) }

// searchWith implements Index: the H-Search walk over the flat arrays on the
// searcher's scratch, answering with the qualifying groups of the leaf
// arena.
func (f *FrozenIndex) searchWith(sr *Searcher, q bitvec.Code, h int) (GroupView, []int32) {
	if q.Len() != f.length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit frozen index", q.Len(), f.length))
	}
	f.walk(sr, q.Words(), h)
	return f.Groups(), sr.groups
}

// fitem is one frozen-walk queue entry: a node id and the Hamming distance
// accumulated over its ancestors' residuals.
type fitem struct {
	nid  int32
	dist int32
}

// walk is the hot-path breadth-first H-Search over the arena, leaving every
// qualifying leaf group's index in sr.groups in the order it is reached.
// Residual distances are computed inline from the slabs (no memo, since a
// single walk touches each node at most once), with the one-word case — the
// common short-code configuration — specialized so the per-node work is a
// bare XOR/AND/popcount.
func (f *FrozenIndex) walk(sr *Searcher, qw []uint64, h int) {
	st := &sr.Stats
	nw := f.nw
	hh := int32(h)
	resSlab, maskSlab, codeSlab := f.resSlab, f.maskSlab, f.codeSlab
	childStart, childList := f.childStart, f.childList
	leafStart, leafList := f.leafStart, f.leafList
	queue, out := sr.fqueue[:0], sr.groups[:0]
	if nw == 1 {
		qw0 := qw[0]
		for _, nid := range f.rootIDs {
			st.DistanceComputations++
			base := 2 * int(nid)
			if d := int32(bits.OnesCount64((qw0 ^ resSlab[base+1]) & resSlab[base])); d <= hh {
				queue = append(queue, fitem{nid: nid, dist: d})
			}
		}
		for _, gi := range f.topLeaves {
			st.DistanceComputations++
			st.LeavesChecked++
			if bits.OnesCount64(qw0^codeSlab[gi]) <= h {
				out = append(out, gi)
			}
		}
		for head := 0; head < len(queue); head++ {
			it := queue[head]
			st.NodesVisited++
			for ci := childStart[it.nid]; ci < childStart[it.nid+1]; ci++ {
				c := childList[ci]
				st.DistanceComputations++
				base := 2 * int(c)
				if d := it.dist + int32(bits.OnesCount64((qw0^resSlab[base+1])&resSlab[base])); d <= hh {
					queue = append(queue, fitem{nid: c, dist: d})
				}
			}
			ls, le := leafStart[it.nid], leafStart[it.nid+1]
			if ls < le {
				mask := maskSlab[it.nid]
				for li := ls; li < le; li++ {
					gi := leafList[li]
					st.DistanceComputations++
					st.LeavesChecked++
					if it.dist+int32(bits.OnesCount64((qw0^codeSlab[gi])&^mask)) <= hh {
						out = append(out, gi)
					}
				}
			}
		}
	} else {
		for _, nid := range f.rootIDs {
			st.DistanceComputations++
			base := int(nid) * 2 * nw
			if d := int32(residualDistance(resSlab[base:base+2*nw], qw, nw)); d <= hh {
				queue = append(queue, fitem{nid: nid, dist: d})
			}
		}
		for _, gi := range f.topLeaves {
			st.DistanceComputations++
			st.LeavesChecked++
			if _, ok := distWithinWords(qw, codeSlab[int(gi)*nw:int(gi+1)*nw], h); ok {
				out = append(out, gi)
			}
		}
		for head := 0; head < len(queue); head++ {
			it := queue[head]
			st.NodesVisited++
			for ci := childStart[it.nid]; ci < childStart[it.nid+1]; ci++ {
				c := childList[ci]
				st.DistanceComputations++
				base := int(c) * 2 * nw
				if d := it.dist + int32(residualDistance(resSlab[base:base+2*nw], qw, nw)); d <= hh {
					queue = append(queue, fitem{nid: c, dist: d})
				}
			}
			ls, le := leafStart[it.nid], leafStart[it.nid+1]
			if ls < le {
				mask := maskSlab[int(it.nid)*nw : int(it.nid)*nw+nw]
				for li := ls; li < le; li++ {
					gi := leafList[li]
					st.DistanceComputations++
					st.LeavesChecked++
					if it.dist+int32(distExcludingWords(qw, codeSlab[int(gi)*nw:int(gi+1)*nw], mask)) <= hh {
						out = append(out, gi)
					}
				}
			}
		}
	}
	sr.fqueue, sr.groups = queue[:0], out // keep the high-water capacity
}

// blockSize is the most queries one shared walk carries, so that a node's
// alive set is one uint64. BenchmarkSearchBatchFrozen chose it over 16 and 32.
const blockSize = 64

// bitem is one block-walk queue entry: a node id, the block's queries still
// alive there (bit j for query j), and where their accumulated distances
// start in the searcher's bdists, one per alive query in bit order.
type bitem struct {
	nid  int32
	off  int32
	mask uint64
}

// walkBlock is walk for up to blockSize queries at once: one
// breadth-first walk over the union of their walks, in which each child's
// residual and each leaf group's code is loaded once per node visit and
// tested against every query alive at the node. Query j's qualifying groups
// land in sr.bout[j] in the order walk reaches them for that query alone,
// since the shared queue restricted to the nodes where j is alive is j's own
// queue. The stats count what the block's walk calls would, summed.
func (f *FrozenIndex) walkBlock(sr *Searcher, qs []bitvec.Code, h int) {
	nq, nw := len(qs), f.nw
	hh := int32(h)
	if sr.bout == nil {
		sr.bout = make([][]int32, blockSize)
	}
	out := sr.bout[:nq]
	for j := range out {
		out[j] = out[j][:0]
	}
	// Query j's words sit at qw[j*nw:], padded to a full block so the
	// one-word tests can index it as an array.
	qw := slices.Grow(sr.bwords[:0], blockSize*nw)[:blockSize*nw]
	for j, q := range qs {
		copy(qw[j*nw:], q.Words())
	}
	queue, dists := sr.bqueue[:0], sr.bdists[:0]
	sr.Stats = SearchStats{
		DistanceComputations: nq * (len(f.rootIDs) + len(f.topLeaves)),
		LeavesChecked:        nq * len(f.topLeaves),
	}
	// The roots and the top-level leaves are the children and leaves of a
	// node every query reaches at distance 0 with no bits fixed.
	var zero [blockSize]int32
	all := uint64(1)<<nq - 1
	queue, dists = f.pushChildren(queue, dists, qw, all, zero[:nq], f.rootIDs, hh)
	f.emitLeaves(out, qw, all, zero[:nq], f.topLeaves, -1, hh)
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		pd := dists[it.off : int(it.off)+f.chargeVisit(&sr.Stats, it)]
		queue, dists = f.pushChildren(queue, dists, qw, it.mask, pd, f.childList[f.childStart[it.nid]:f.childStart[it.nid+1]], hh)
		f.emitLeaves(out, qw, it.mask, pd, f.leafList[f.leafStart[it.nid]:f.leafStart[it.nid+1]], it.nid, hh)
	}
	// Keep the high-water capacities.
	sr.bwords, sr.bqueue, sr.bdists = qw[:0], queue[:0], dists[:0]
}

// pushChildren tests each child's residual against the queries alive in
// mask, whose distances so far are pd in bit order, and queues every child
// some query survives with the survivors' distances.
func (f *FrozenIndex) pushChildren(queue []bitem, dists []int32, qw []uint64, mask uint64, pd []int32, children []int32, hh int32) ([]bitem, []int32) {
	dists = slices.Grow(dists, len(children)*len(pd))
	for _, c := range children {
		off := len(dists)
		if m, n := f.childAlive(qw, mask, pd, dists[off:off+len(pd)], c, hh); m != 0 {
			dists = dists[:off+n]
			queue = append(queue, bitem{nid: c, off: int32(off), mask: m})
		}
	}
	return queue, dists
}

// childAlive tests node c's residual against the queries alive in mask,
// whose distances so far are pd in bit order. It writes the survivors'
// distances to the front of buf and returns their mask and count. It is its
// own function so that the loop's state stays in registers: inside walkBlock
// it spills to the stack.
func (f *FrozenIndex) childAlive(qw []uint64, mask uint64, pd, buf []int32, c, hh int32) (uint64, int) {
	n, m := 0, uint64(0)
	if nw := f.nw; nw == 1 {
		qa := (*[blockSize]uint64)(qw)
		rm, rb := f.resSlab[2*int(c)], f.resSlab[2*int(c)+1]
		for k, rest := 0, mask; rest != 0; k, rest = k+1, rest&(rest-1) {
			j := bits.TrailingZeros64(rest) & (blockSize - 1)
			if d := pd[k] + int32(bits.OnesCount64((qa[j]^rb)&rm)); d <= hh {
				buf[n] = d
				n++
				m |= 1 << j
			}
		}
	} else {
		res := f.resSlab[int(c)*2*nw : int(c+1)*2*nw]
		for k, rest := 0, mask; rest != 0; k, rest = k+1, rest&(rest-1) {
			j := bits.TrailingZeros64(rest)
			if d := pd[k] + int32(residualDistance(res, qw[j*nw:], nw)); d <= hh {
				buf[n] = d
				n++
				m |= 1 << j
			}
		}
	}
	return m, n
}

// emitLeaves tests each leaf group's code, outside node nid's pattern (all
// of it when nid is -1), against the queries alive in mask, whose distances
// so far are pd in bit order, and appends the group to out[j] for every
// query j within hh.
func (f *FrozenIndex) emitLeaves(out [][]int32, qw []uint64, mask uint64, pd []int32, leaves []int32, nid, hh int32) {
	if nw := f.nw; nw == 1 {
		qa := (*[blockSize]uint64)(qw)
		var pm uint64
		if nid >= 0 {
			pm = f.maskSlab[nid]
		}
		for _, gi := range leaves {
			c := f.codeSlab[gi]
			for k, rest := 0, mask; rest != 0; k, rest = k+1, rest&(rest-1) {
				j := bits.TrailingZeros64(rest) & (blockSize - 1)
				if pd[k]+int32(bits.OnesCount64((qa[j]^c)&^pm)) <= hh {
					out[j] = append(out[j], gi)
				}
			}
		}
	} else {
		var pm []uint64
		if nid >= 0 {
			pm = f.maskSlab[int(nid)*nw : int(nid+1)*nw]
		} else {
			pm = make([]uint64, nw)
		}
		for _, gi := range leaves {
			c := f.codeSlab[int(gi)*nw : int(gi+1)*nw]
			for k, rest := 0, mask; rest != 0; k, rest = k+1, rest&(rest-1) {
				j := bits.TrailingZeros64(rest)
				if pd[k]+int32(distExcludingWords(qw[j*nw:(j+1)*nw], c, pm)) <= hh {
					out[j] = append(out[j], gi)
				}
			}
		}
	}
}

// chargeVisit counts one block-walk node visit in st as its alive queries'
// walk visits would, and returns how many queries are alive there.
func (f *FrozenIndex) chargeVisit(st *SearchStats, it bitem) int {
	alive := bits.OnesCount64(it.mask)
	nl := int(f.leafStart[it.nid+1] - f.leafStart[it.nid])
	st.NodesVisited += alive
	st.DistanceComputations += alive * (int(f.childStart[it.nid+1]-f.childStart[it.nid]) + nl)
	st.LeavesChecked += alive * nl
	return alive
}

// distWithinWords is Code.DistanceWithin over raw word slices: it returns
// the full Hamming distance and whether it is at most h, short-circuiting
// once the running count exceeds h.
func distWithinWords(qw, cw []uint64, h int) (int, bool) {
	sum := 0
	for i, w := range qw {
		sum += bits.OnesCount64(w ^ cw[i])
		if sum > h {
			return sum, false
		}
	}
	return sum, true
}

// distExcludingWords is Code.DistanceExcluding over raw word slices: the
// Hamming distance counted only at positions NOT set in the mask words.
func distExcludingWords(qw, cw, mw []uint64) int {
	sum := 0
	for i, w := range qw {
		sum += bits.OnesCount64((w ^ cw[i]) &^ mw[i])
	}
	return sum
}

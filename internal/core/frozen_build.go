package core

import (
	"fmt"
	"math/bits"
	"slices"

	"haindex/internal/gray"
)

// BuildFrozen is H-Build (Algorithm 1) straight into the compiled form: the
// index Freeze(BuildDynamic(codes, ids, opts)) compiles, arena for arena —
// EncodeArena writes the same bytes — without the pointer form in between.
// The input is a tuple slab: rows holds one length-bit code after another,
// (length+63)/64 words each with the unused tail bits zero, and ids[i] is row
// i's tuple id (positions when ids is nil). The slab is sorted in place — Gray
// rank, raw word order under opts.LexOrder — and nothing of the result aliases
// it, so the caller may reuse it at once. Adjacent equal rows become one leaf
// group; the level loop then runs over flat pattern words and int32 item and
// edge lists, nodes are numbered breadth-first and groups depth-first as
// Freeze numbers them, and the arenas are written once. BuildDynamic stays
// the reference implementation (TestBuildFrozenMatchesPointerBuild), the
// library API and the paper's merge phase; every serving build — a streamed
// chunk, an LSM seal, a compaction — is this function. Like BuildDynamic it
// panics over an empty dataset.
func BuildFrozen(length int, rows []uint64, ids []int, opts Options) *FrozenIndex {
	nw := (length + 63) / 64
	n := len(rows) / max(nw, 1)
	if length <= 0 || n == 0 || n*nw != len(rows) || (ids != nil && len(ids) != n) {
		panic(fmt.Sprintf("core: BuildFrozen over %d words, %d ids of %d-bit codes", len(rows), len(ids), length))
	}
	opts = opts.withDefaults(n)
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	gray.SortRows(length, rows, ids, opts.LexOrder)
	return buildFrozenSorted(length, rows, ids, opts)
}

// buildFrozenSorted is BuildFrozen over a slab already in build order, as
// buildFromSorted is BuildDynamic's: options defaulted, equal rows adjacent.
func buildFrozenSorted(length int, rows []uint64, ids []int, opts Options) *FrozenIndex {
	nw := (length + 63) / 64
	n := len(ids)

	// Leaf groups are the runs of equal rows: group g covers rows
	// [gstart[g], gstart[g+1]) and, the sort being stable, lists their ids in
	// input order.
	gstart := make([]int32, 1, n+1)
	for at := nw; at < len(rows); at += nw {
		if !slices.Equal(rows[at-nw:at], rows[at:at+nw]) {
			gstart = append(gstart, int32(at/nw))
		}
	}
	ng := len(gstart)
	gstart = append(gstart, int32(n))

	b := &hbuild{nw: nw, ng: int32(ng), rows: rows, gstart: gstart, full: make([]uint64, nw)}
	for i := range b.full {
		b.full[i] = ^uint64(0)
	}
	if r := uint(length % 64); r != 0 {
		b.full[nw-1] <<= 64 - r
	}
	// An item is a leaf group (< ng) or a node (ng + creation index). Every
	// item is linked under a parent at most once and a node stands for at
	// least two items, so there are fewer than ng nodes and 2*ng links.
	b.linkItem = make([]int32, 0, 2*ng)
	b.linkNode = make([]int32, 0, 2*ng)
	b.mask = make([]uint64, 0, ng/2*nw) // the most the first level can make
	b.bits = make([]uint64, 0, ng/2*nw)
	b.parent = make([]int32, 0, ng/2)
	items := make([]int32, ng)
	for i := range items {
		items[i] = int32(i)
	}
	top := b.levels(items, length, opts)
	return b.emit(top, length, n, ids)
}

// hbuild is the state of one BuildFrozen: the sorted slab with its group
// boundaries, the patterns of the nodes made so far in creation order, and
// the parent links in the order H-Build makes them.
type hbuild struct {
	nw     int
	ng     int32
	rows   []uint64
	gstart []int32
	full   []uint64 // a leaf's mask: every position fixed

	mask, bits []uint64 // nw words a node: its FLSSeq pattern
	parent     []int32  // a node's parent, -1 while it has none
	linkItem   []int32  // the items in the order they were linked …
	linkNode   []int32  // … and the node each went under
	slots      []uint64 // this level's consolidation table: pattern hash<<32 | node+1, 0 empty
}

// pat returns an item's pattern words, aliasing the slab or the node arrays.
func (b *hbuild) pat(it int32) (mask, val []uint64) {
	if it < b.ng {
		at := int(b.gstart[it]) * b.nw
		return b.full, b.rows[at : at+b.nw]
	}
	at := int(it-b.ng) * b.nw
	return b.mask[at : at+b.nw], b.bits[at : at+b.nw]
}

// levels is the level loop of buildFromSorted over flat arrays: at each level
// a window slides over the items, growing while the pattern its items share
// keeps the level's bit threshold; a window of one passes through, a longer
// one goes under a node of the shared pattern — the node an equal pattern
// already made at this level, unless opts.NoConsolidate. It returns the items
// left at the top.
func (b *hbuild) levels(items []int32, length int, opts Options) []int32 {
	nw := b.nw
	scratch := make([]uint64, 3*nw)
	sm, sv, cm := scratch[:nw], scratch[nw:2*nw], scratch[2*nw:]
	next := make([]int32, 0, len(items))
	for depth := 0; depth < opts.Depth && len(items) > 1; depth++ {
		minShared := max(thresholdAt(length, depth), opts.MinShared)
		if !opts.NoConsolidate {
			// At most half the items become nodes: the table stays half empty.
			size := 1 << bits.Len(uint(len(items)-1))
			if size > cap(b.slots) {
				b.slots = make([]uint64, size)
			}
			b.slots = b.slots[:size]
			clear(b.slots)
		}
		next = next[:0]
		progressed := false
		for at := 0; at < len(items); {
			m, v := b.pat(items[at])
			copy(sm, m)
			copy(sv, v)
			end := at + 1
			for ; end < len(items) && end-at < opts.Window; end++ {
				qm, qv := b.pat(items[end])
				fixed := 0
				for i := range cm {
					cm[i] = sm[i] & qm[i] &^ (sv[i] ^ qv[i])
					fixed += bits.OnesCount64(cm[i])
				}
				if fixed < minShared {
					break
				}
				for i := range cm {
					sm[i] = cm[i]
					sv[i] &= cm[i]
				}
			}
			if end-at == 1 {
				next = append(next, items[at])
				at = end
				continue
			}
			progressed = true
			p, made := b.node(sm, sv, !opts.NoConsolidate)
			if made {
				next = append(next, b.ng+p)
			}
			for _, it := range items[at:end] {
				b.linkItem = append(b.linkItem, it)
				b.linkNode = append(b.linkNode, p)
				if it >= b.ng {
					b.parent[it-b.ng] = p
				}
			}
			at = end
		}
		items, next = next, items
		if !progressed && minShared == opts.MinShared {
			break // nothing groups even at the floor threshold
		}
	}
	return items
}

// node returns the node of the given pattern: with consolidate set the one
// this level already made for an equal pattern, if any, and otherwise a new
// one (made reports which).
func (b *hbuild) node(mask, val []uint64, consolidate bool) (p int32, made bool) {
	nw := b.nw
	slot, tag := -1, uint64(0)
	if consolidate {
		h := uint64(0)
		for i := range mask {
			h = (h ^ mask[i]) * 0x9E3779B97F4A7C15
			h = (h ^ val[i]) * 0x9E3779B97F4A7C15
		}
		// The hash's high half picks the slot and rides in it, so a probe
		// reads a node's pattern only when the whole hash agrees.
		tag = h &^ (1<<32 - 1)
		last := len(b.slots) - 1
		for slot = int(h>>32) & last; b.slots[slot] != 0; slot = (slot + 1) & last {
			if e := b.slots[slot]; e&^(1<<32-1) == tag {
				at := int(uint32(e)-1) * nw
				if slices.Equal(b.mask[at:at+nw], mask) && slices.Equal(b.bits[at:at+nw], val) {
					return int32(uint32(e) - 1), false
				}
			}
		}
	}
	p = int32(len(b.parent))
	b.mask = append(b.mask, mask...)
	b.bits = append(b.bits, val...)
	b.parent = append(b.parent, -1)
	if slot >= 0 {
		b.slots[slot] = tag | uint64(p+1)
	}
	return p, true
}

// emit numbers the hierarchy as Freeze does and writes the arenas: nodes
// breadth-first from the roots (top's nodes, in order), leaf groups
// depth-first — a node's subtrees, then its own leaves — and then the leaves
// left at the top.
func (b *hbuild) emit(top []int32, length, n int, ids []int) *FrozenIndex {
	nw, ng, nn := b.nw, int(b.ng), len(b.parent)

	// The links, regrouped by parent in the order they were made (a stable
	// counting sort), are each node's children and leaves, by creation index.
	// The counts go in two places up, so that after the prefix sums entry p+1
	// is node p's cursor; filling walks it to node p's end, which is node
	// p+1's start — and the arrays, read from entry 0, are the starts.
	cstart, lstart := make([]int32, nn+2), make([]int32, nn+2)
	for i, it := range b.linkItem {
		if it >= b.ng {
			cstart[b.linkNode[i]+2]++
		} else {
			lstart[b.linkNode[i]+2]++
		}
	}
	for p := 2; p < nn+2; p++ {
		cstart[p] += cstart[p-1]
		lstart[p] += lstart[p-1]
	}
	clist, llist := make([]int32, cstart[nn+1]), make([]int32, lstart[nn+1])
	for i, it := range b.linkItem {
		p := b.linkNode[i] + 1
		if it >= b.ng {
			clist[cstart[p]] = it - b.ng
			cstart[p]++
		} else {
			llist[lstart[p]] = it
			lstart[p]++
		}
	}

	f := &FrozenIndex{length: length, n: n, nw: nw}
	bfs := make([]int32, 0, nn) // breadth-first position -> creation index
	for _, it := range top {
		if it >= b.ng {
			f.rootIDs = append(f.rootIDs, int32(len(bfs)))
			bfs = append(bfs, it-b.ng)
		}
	}
	for at := 0; at < len(bfs); at++ {
		c := bfs[at]
		bfs = append(bfs, clist[cstart[c]:cstart[c+1]]...)
	}

	// Depth-first group numbers without the recursion: a child is made a level
	// before its parent, so ascending creation order sizes every subtree
	// bottom-up and descending order hands out the group ranges top-down — a
	// node's subtrees first, in order, then its own leaves.
	size := make([]int32, nn) // groups beneath the node, then the first of them
	for c := range size {
		size[c] += lstart[c+1] - lstart[c]
		if p := b.parent[c]; p >= 0 {
			size[p] += size[c]
		}
	}
	gid := make([]int32, ng) // sorted group -> arena group
	next := int32(0)
	for _, c := range bfs[:len(f.rootIDs)] {
		size[c], next = next, next+size[c]
	}
	f.topLeaves = make([]int32, 0, len(top)-len(f.rootIDs))
	for _, it := range top {
		if it < b.ng {
			gid[it] = next
			f.topLeaves = append(f.topLeaves, next)
			next++
		}
	}
	for c := nn - 1; c >= 0; c-- {
		at := size[c]
		for _, child := range clist[cstart[c]:cstart[c+1]] {
			size[child], at = at, at+size[child]
		}
		for _, g := range llist[lstart[c]:lstart[c+1]] {
			gid[g] = at
			at++
		}
	}
	f.codeSlab = make([]uint64, ng*nw)
	f.idStart = make([]int32, ng+1)
	f.idSlab = make([]int, n)
	for g, to := range gid {
		f.idStart[to+1] = b.gstart[g+1] - b.gstart[g]
		copy(f.codeSlab[int(to)*nw:int(to+1)*nw], b.rows[int(b.gstart[g])*nw:])
	}
	for to := 0; to < ng; to++ {
		f.idStart[to+1] += f.idStart[to]
	}
	for g, to := range gid {
		copy(f.idSlab[f.idStart[to]:f.idStart[to+1]], ids[b.gstart[g]:])
	}

	// Breadth-first order lists every node's children one after another, so
	// the child list is the non-root ids in order.
	f.childStart = make([]int32, nn+1)
	f.childList = make([]int32, nn-len(f.rootIDs))
	for i := range f.childList {
		f.childList[i] = int32(len(f.rootIDs) + i)
	}
	f.leafStart = make([]int32, nn+1)
	f.leafList = make([]int32, 0, len(llist))
	f.resSlab = make([]uint64, nn*2*nw)
	f.maskSlab = make([]uint64, nn*nw)
	for i, c := range bfs {
		f.childStart[i+1] = f.childStart[i] + cstart[c+1] - cstart[c]
		for _, g := range llist[lstart[c]:lstart[c+1]] {
			f.leafList = append(f.leafList, gid[g])
		}
		f.leafStart[i+1] = int32(len(f.leafList))
		mask, val := b.pat(b.ng + c)
		copy(f.maskSlab[i*nw:], mask)
		res := f.resSlab[i*2*nw : (i+1)*2*nw]
		for w := range mask {
			res[w] = mask[w]
			if p := b.parent[c]; p >= 0 {
				res[w] &^= b.mask[int(p)*nw+w]
			}
			res[nw+w] = val[w] & res[w]
		}
	}
	return f
}

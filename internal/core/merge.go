package core

import "haindex/internal/bitvec"

// Merge combines per-partition HA-Indexes into one global index (the
// post-processing step of Section 5.2). When the partitions hold disjoint
// code sets — which histogram pivoting guarantees, since partitions are
// contiguous Gray ranges — the local hierarchies are grafted together and
// top-level nodes with identical FLSSeq patterns are consolidated, so the
// merge touches only index nodes, never the data. If code sets overlap the
// merge falls back to a rebuild over the union.
//
// The grafted structure is deep-copied: the output shares no dnodes or
// leafGroups with the inputs, so mutating the merged index (Insert, Delete,
// Flush) never corrupts the parts and the parts stay independently usable —
// callers of haindex.MergeIndexes keep both. Leaf codes and node patterns are
// shared by value; neither is ever mutated in place by index operations.
//
// The returned index adopts the options of the first input. Every input is
// flushed, including in the single-input case, so a buffered-insert index
// merges identically regardless of how many siblings it has.
func Merge(parts ...*DynamicIndex) *DynamicIndex {
	if len(parts) == 0 {
		panic("core: Merge of no indexes")
	}
	if len(parts) == 1 {
		parts[0].Flush()
		return parts[0]
	}
	first := parts[0]
	out := &DynamicIndex{
		opts:   first.opts,
		length: first.length,
		byCode: make(map[string]*leafGroup),
	}
	disjoint := true
	seen := make(map[string]struct{})
	for _, p := range parts {
		if p.length != out.length {
			panic("core: merging indexes with different code lengths")
		}
		p.Flush()
		for key := range p.byCode {
			if _, dup := seen[key]; dup {
				disjoint = false
			}
			seen[key] = struct{}{}
		}
	}
	if !disjoint {
		// Overlapping code sets: rebuild over the union of tuples. Fresh
		// leaf groups are created so the inputs stay usable.
		for _, p := range parts {
			p.Tuples(func(id int, c bitvec.Code) { out.addLeaf(id, c) })
		}
		out.rebuild()
		return out
	}
	// Graft: deep-copy each part's top level into the output, consolidating
	// equal root patterns, then recompute residuals over the copied nodes.
	rootByPat := make(map[string]*dnode)
	for _, p := range parts {
		for _, r := range p.roots {
			cr := out.cloneSubtree(r)
			key := cr.pat.Key()
			if prev, ok := rootByPat[key]; ok {
				prev.children = append(prev.children, cr.children...)
				for _, c := range cr.children {
					c.parent = prev
				}
				prev.leaves = append(prev.leaves, cr.leaves...)
				for _, g := range cr.leaves {
					g.parent = prev
				}
				prev.freq += cr.freq
				continue
			}
			rootByPat[key] = cr
			out.roots = append(out.roots, cr)
		}
		for _, g := range p.topLeaves {
			out.topLeaves = append(out.topLeaves, out.cloneLeaf(g, nil))
		}
	}
	out.finalizeResiduals()
	return out
}

// cloneLeaf copies one leaf group (fresh ids slice, shared code value) into
// the output index, registering it in byCode and counting its tuples.
func (x *DynamicIndex) cloneLeaf(g *leafGroup, parent *dnode) *leafGroup {
	cg := &leafGroup{
		code:   g.code,
		ids:    append([]int(nil), g.ids...),
		parent: parent,
	}
	x.byCode[g.code.Key()] = cg
	x.n += len(cg.ids)
	return cg
}

// cloneSubtree deep-copies a node and everything beneath it; residuals are
// left for finalizeResiduals, since consolidation may change parents.
func (x *DynamicIndex) cloneSubtree(n *dnode) *dnode {
	cn := &dnode{pat: n.pat, freq: n.freq}
	if len(n.children) > 0 {
		cn.children = make([]*dnode, len(n.children))
		for i, c := range n.children {
			cc := x.cloneSubtree(c)
			cc.parent = cn
			cn.children[i] = cc
		}
	}
	if len(n.leaves) > 0 {
		cn.leaves = make([]*leafGroup, len(n.leaves))
		for i, g := range n.leaves {
			cn.leaves[i] = x.cloneLeaf(g, cn)
		}
	}
	return cn
}

package core

import "haindex/internal/bitvec"

// SearchRecomputeAll answers the same query as Search but recomputes the
// full pattern distance from scratch at every node instead of charging only
// the residual bits beyond the parent. Because a child's pattern contains
// its parent's, the bound is identical and the result set is exactly
// Search's — only the redundant work returns. This is the ablation for the
// residual-distance accounting DESIGN.md calls out; it exists to be
// benchmarked, not used. Like SearchInto it adds its work to stats.
func (x *DynamicIndex) SearchRecomputeAll(q bitvec.Code, h int, stats *SearchStats) []int {
	var out []int
	type qitem struct {
		n *dnode
	}
	var queue []qitem
	for _, r := range x.roots {
		stats.DistanceComputations++
		if r.pat.Distance(q) <= h {
			queue = append(queue, qitem{n: r})
		}
	}
	for _, g := range x.topLeaves {
		stats.DistanceComputations++
		stats.LeavesChecked++
		if _, ok := q.DistanceWithin(g.code, h); ok {
			out = append(out, g.ids...)
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		stats.NodesVisited++
		for _, c := range it.n.children {
			stats.DistanceComputations++
			if c.pat.Distance(q) <= h {
				queue = append(queue, qitem{n: c})
			}
		}
		for _, g := range it.n.leaves {
			stats.DistanceComputations++
			stats.LeavesChecked++
			if _, ok := q.DistanceWithin(g.code, h); ok {
				out = append(out, g.ids...)
			}
		}
	}
	for _, p := range x.buffer {
		stats.DistanceComputations++
		if _, ok := q.DistanceWithin(p.code, h); ok {
			out = append(out, p.id)
		}
	}
	return out
}

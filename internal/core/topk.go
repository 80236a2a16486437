package core

import (
	"sort"

	"haindex/internal/bitvec"
)

// TopK returns the ids of the k tuples nearest to q in Hamming distance,
// with their distances, ordered by (distance, id); ties at the kth place are
// broken toward smaller ids, so the result is deterministic. Fewer than k
// pairs come back when the index holds fewer tuples.
//
// The search expands the radius one step at a time — a tuple's distance is
// the first radius at which it appears — and stops at the first radius whose
// cumulative result reaches k, so selective queries never pay for a full
// scan. Unlike Search, the returned slices are freshly allocated and do not
// alias the searcher's scratch; Stats aggregates the whole expansion.
func (sr *Searcher) TopK(q bitvec.Code, k int) ([]int, []int) {
	if f, ok := sr.idx.(*FrozenIndex); ok {
		// The frozen index escalates natively: its epoch-packed memo computes
		// each node's residual distance once for the whole expansion.
		return f.topK(sr, q, k)
	}
	var agg SearchStats
	ids, dists := TopKByRadius(sr.idx.Length(), k, func(h int) []int {
		ids := sr.Search(q, h)
		agg.Add(sr.Stats)
		return ids
	})
	sr.Stats = agg
	return ids, dists
}

// TopKByRadius is the radius escalation behind every top-k but the frozen
// walk's: search(h) returns the ids within distance h of the query (it may
// reuse one buffer from call to call), and a tuple's distance is the first
// radius at which it appears. The search stops at the first radius whose
// cumulative result reaches k, or at length; the k nearest come back ordered
// by (distance, id) in fresh slices, nil when k <= 0.
func TopKByRadius(length, k int, search func(h int) []int) ([]int, []int) {
	if k <= 0 {
		return nil, nil
	}
	dist := make(map[int]int)
	for h := 0; h <= length; h++ {
		for _, id := range search(h) {
			if _, seen := dist[id]; !seen {
				dist[id] = h
			}
		}
		if len(dist) >= k {
			break
		}
	}
	ids := make([]int, 0, len(dist))
	for id := range dist {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := dist[ids[i]], dist[ids[j]]
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	dists := make([]int, len(ids))
	for i, id := range ids {
		dists[i] = dist[id]
	}
	return ids, dists
}

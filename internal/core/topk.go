package core

import "slices"

// TopKByRadius is the radius escalation behind every top-k: search(h)
// returns the ids within distance h of the query (it may reuse one buffer
// from call to call), and a tuple's distance is the first radius at which it
// appears. Each radius's first-seen ids form one band, sorted by id and
// appended after the closer bands, so the result is ordered by (distance, id)
// as it grows. The search stops at the first radius whose cumulative result
// reaches k, or at length; the k nearest come back in fresh slices, nil when
// k <= 0.
func TopKByRadius(length, k int, search func(h int) []int) ([]int, []int) {
	if k <= 0 {
		return nil, nil
	}
	// Presized by a small constant at most: k comes from the client and
	// can be as large as 1<<20.
	n := min(k, 16)
	seen := make(map[int]struct{}, n)
	ids, dists := make([]int, 0, n), make([]int, 0, n)
	for h := 0; h <= length && len(ids) < k; h++ {
		band := len(ids)
		for _, id := range search(h) {
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
		slices.Sort(ids[band:])
		for range ids[band:] {
			dists = append(dists, h)
		}
	}
	if len(ids) > k {
		ids, dists = ids[:k], dists[:k]
	}
	return ids, dists
}

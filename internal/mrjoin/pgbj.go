package mrjoin

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"haindex/internal/dataset"
	"haindex/internal/knn"
	"haindex/internal/mapreduce"
	"haindex/internal/vector"
)

// PGBJResult is the output of the exact parallel kNN-join baseline.
type PGBJResult struct {
	// Neighbors maps each S tuple id to its k nearest R neighbors.
	Neighbors map[int][]knn.Neighbor
	Metrics   mapreduce.Metrics
}

// cellStats describes one Voronoi cell of the pivot partitioning.
type cellStats struct {
	radius float64 // max distance from a member R tuple to the pivot
	count  int
}

// PGBJ reimplements Lu et al.'s (PVLDB'12) exact kNN-join: R is Voronoi-
// partitioned around sampled pivots; a first job computes per-cell radii and
// counts; a second job shuffles R to its cells and replicates each S tuple
// to every cell that can contain one of its k nearest neighbors (bounded by
// the smallest distance guaranteeing k covered candidates); reducers join
// cells exactly and a final merge keeps the global top k per S tuple.
//
// The defining cost — full d-dimensional records crossing the shuffle, with
// S replication — is what Figures 7 and 9 contrast with the code-only
// shuffles of the Hamming-join plans.
func PGBJ(r, s []vector.Vec, k int, opt Options) (*PGBJResult, error) {
	opt = opt.withDefaults()
	if len(r) == 0 || len(s) == 0 {
		return nil, fmt.Errorf("mrjoin: PGBJ over empty input")
	}
	if k <= 0 {
		k = 50
	}
	pivots := dataset.Reservoir(r, opt.Partitions, opt.Seed+17)
	nearest := func(v vector.Vec) (int, float64) {
		best, bd := 0, math.Inf(1)
		for i, p := range pivots {
			if d := v.Dist(p); d < bd {
				best, bd = i, d
			}
		}
		return best, bd
	}

	var total mapreduce.Metrics

	// ---- Job A: per-cell statistics (radius, count) ----
	stats := make([]cellStats, len(pivots))
	var mu sync.Mutex
	toCell := func(in mapreduce.KV, emit func(mapreduce.KV)) error {
		cell, _ := nearest(shipped(nil, in.Value))
		emit(mapreduce.KV{Key: encodeUint32(uint32(cell)), Value: in.Value})
		return nil
	}
	cellRadius := func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		cell := decodeID(key)
		cs := cellStats{count: len(values)}
		p := pivots[cell]
		for _, v := range values {
			if d := shipped(nil, v).Dist(p); d > cs.radius {
				cs.radius = d
			}
		}
		mu.Lock()
		stats[cell] = cs
		mu.Unlock()
		return nil
	}
	if _, m, err := mapreduce.Run(opt.job("pgbj-cell-stats", toCell, cellRadius), VecInput(r)); err != nil {
		return nil, fmt.Errorf("mrjoin: PGBJ stats job: %w", err)
	} else {
		total.Add(m)
	}

	// ---- Job B: partition R, replicate S, join per cell ----
	const (
		sideR = 0
		sideS = 1
	)
	input := make([]mapreduce.KV, 0, len(r)+len(s))
	for i, v := range r {
		input = append(input, mapreduce.KV{Key: encodeUint32(uint32(i)), Value: appendVec([]byte{sideR}, v)})
	}
	for i, v := range s {
		input = append(input, mapreduce.KV{Key: encodeUint32(uint32(i)), Value: appendVec([]byte{sideS}, v)})
	}
	route := func(in mapreduce.KV, emit func(mapreduce.KV)) error {
		side := in.Value[0]
		v := shipped(nil, in.Value[1:])
		// The shuffled record is the input record behind its tuple id:
		// (id, side, float32 components).
		val := append(append([]byte(nil), in.Key...), in.Value...)
		if side == sideR {
			cell, _ := nearest(v)
			emit(mapreduce.KV{Key: encodeUint32(uint32(cell)), Value: val})
			return nil
		}
		// S side: find the distance bound covering >= k R tuples, then
		// replicate to every cell that can intersect it.
		type cand struct {
			cell  int
			upper float64 // dist(s, p) + radius: covers whole cell
			lower float64 // dist(s, p) - radius: closest possible member
		}
		cands := make([]cand, 0, len(pivots))
		for ci := range pivots {
			if stats[ci].count == 0 {
				continue
			}
			d := v.Dist(pivots[ci])
			cands = append(cands, cand{cell: ci, upper: d + stats[ci].radius, lower: d - stats[ci].radius})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].upper < cands[b].upper })
		covered := 0
		ub := math.Inf(1)
		for _, c := range cands {
			covered += stats[c.cell].count
			if covered >= k {
				ub = c.upper
				break
			}
		}
		for _, c := range cands {
			if c.lower <= ub {
				emit(mapreduce.KV{Key: encodeUint32(uint32(c.cell)), Value: val})
			}
		}
		return nil
	}
	joinCell := func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		var rids []int
		var rvecs []vector.Vec
		type srec struct {
			id  int
			vec vector.Vec
		}
		var ss []srec
		for _, v := range values {
			id := decodeID(v)
			side := v[4]
			vec := shipped(nil, v[5:])
			if side == sideR {
				rids = append(rids, id)
				rvecs = append(rvecs, vec)
			} else {
				ss = append(ss, srec{id: id, vec: vec})
			}
		}
		for _, sr := range ss {
			for _, n := range knn.Exact(rvecs, sr.vec, k) {
				val := make([]byte, 12)
				binary.BigEndian.PutUint32(val, uint32(rids[n.ID]))
				binary.BigEndian.PutUint64(val[4:], math.Float64bits(n.Dist))
				emit(mapreduce.KV{Key: encodeUint32(uint32(sr.id)), Value: val})
			}
		}
		return nil
	}
	cfgB := opt.job("pgbj-join", route, joinCell,
		mapreduce.Broadcast{Name: "pivots+stats", Size: int64(len(pivots)*(4*len(r[0])+16) + 16)})
	out, m, err := mapreduce.Run(cfgB, input)
	if err != nil {
		return nil, fmt.Errorf("mrjoin: PGBJ join job: %w", err)
	}
	total.Add(m)

	// Merge candidates per S tuple, keep the global top k.
	perS := make(map[int][]knn.Neighbor)
	for _, kv := range out {
		sid := decodeID(kv.Key)
		rid := int(binary.BigEndian.Uint32(kv.Value))
		dist := math.Float64frombits(binary.BigEndian.Uint64(kv.Value[4:]))
		perS[sid] = append(perS[sid], knn.Neighbor{ID: rid, Dist: dist})
	}
	for sid, ns := range perS {
		sort.Slice(ns, func(a, b int) bool {
			if ns[a].Dist != ns[b].Dist {
				return ns[a].Dist < ns[b].Dist
			}
			return ns[a].ID < ns[b].ID
		})
		// Replicated S tuples can meet the same R tuple in several cells
		// only if R were replicated — it is not — so no dedup is needed.
		if len(ns) > k {
			ns = ns[:k]
		}
		perS[sid] = ns
	}
	return &PGBJResult{Neighbors: perS, Metrics: total}, nil
}

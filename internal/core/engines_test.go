package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
)

// topK is the k nearest tuples to q by core.TopKByRadius over sr.Search.
func topK(sr *core.Searcher, q bitvec.Code, k int) ([]int, []int) {
	return core.TopKByRadius(q.Len(), k, func(h int) []int { return sr.Search(q, h) })
}

// TestTopKAgainstBruteForce: a top-k over every arena engine — the frozen
// HA-Index, the scan and multi-index hashing — returns exactly the
// first k (distance, id) pairs of a brute-force sort, ids and distances
// alike, at 16 to 128 bits, for queries near stored codes and random ones,
// with k from 0 past the index size.
func TestTopKAgainstBruteForce(t *testing.T) {
	for _, bitsLen := range []int{16, 32, 64, 100, 128} {
		rng := rand.New(rand.NewSource(int64(1100 + bitsLen)))
		codes, frozen, m := clusteredArena(t, rng, bitsLen)
		queries := make([]bitvec.Code, 24)
		for i := range queries {
			if i%3 == 0 {
				queries[i] = bitvec.Rand(rng, bitsLen)
			} else {
				queries[i] = codes[rng.Intn(len(codes))].Clone()
				queries[i].FlipBit(rng.Intn(bitsLen))
			}
		}
		ks := []int{0, 1, 3, 17, 64, len(codes) + 5, 1 + rng.Intn(20)}
		for qi, q := range queries {
			allIDs, allDists := bruteOrder(codes, q)
			for _, eng := range []core.Engine{frozen, frozen.Groups(), m} {
				sr := core.NewSearcher(eng)
				for _, k := range ks {
					var wantIDs, wantDists []int
					if k > 0 {
						n := min(k, len(codes))
						wantIDs, wantDists = allIDs[:n], allDists[:n]
					}
					gotIDs, gotDists := topK(sr, q, k)
					if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotDists, wantDists) {
						t.Fatalf("L=%d %T k=%d q#%d: got %v at %v, want %v at %v",
							bitsLen, eng, k, qi, gotIDs, gotDists, wantIDs, wantDists)
					}
				}
			}
		}
	}
}

// TestFrozenTopKEquivalence: the frozen HA-Index's top-k returns exactly the
// (distance, id) pairs of the top-k through each other engine over the same
// arena — the brute scan and multi-index hashing — for queries that are
// stored codes themselves (ties at distance 0) and random ones.
func TestFrozenTopKEquivalence(t *testing.T) {
	for _, bitsLen := range []int{32, 128} {
		rng := rand.New(rand.NewSource(int64(1100 + bitsLen)))
		codes, frozen, m := clusteredArena(t, rng, bitsLen)
		queries := make([]bitvec.Code, 32)
		for i := range queries {
			if i%3 == 0 {
				queries[i] = bitvec.Rand(rng, bitsLen)
			} else {
				queries[i] = codes[rng.Intn(len(codes))]
			}
		}
		fsr := core.NewSearcher(frozen)
		for _, eng := range []core.Engine{frozen.Groups(), m} {
			esr := core.NewSearcher(eng)
			for _, k := range []int{0, 1, 3, 17, 64, len(codes) + 5} {
				for qi, q := range queries {
					gotIDs, gotDists := topK(fsr, q, k)
					wantIDs, wantDists := topK(esr, q, k)
					if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotDists, wantDists) {
						t.Fatalf("L=%d %T k=%d q#%d: frozen %v at %v, the engine's %v at %v",
							bitsLen, eng, k, qi, gotIDs, gotDists, wantIDs, wantDists)
					}
				}
			}
		}
	}
}

// clusteredArena draws 700 codes of bitsLen bits in clusters of 71 (three
// bit flips from a random center) and indexes them twice over one arena: the
// frozen HA-Index and multi-index hashing built from its groups.
func clusteredArena(t *testing.T, rng *rand.Rand, bitsLen int) ([]bitvec.Code, *core.FrozenIndex, *mih.Index) {
	t.Helper()
	var codes []bitvec.Code
	for len(codes) < 700 {
		center := bitvec.Rand(rng, bitsLen)
		for i := 0; i < 71 && len(codes) < 700; i++ {
			c := center.Clone()
			for f := 0; f < 3; f++ {
				c.FlipBit(rng.Intn(bitsLen))
			}
			codes = append(codes, c)
		}
	}
	frozen := core.Freeze(core.BuildDynamic(codes, nil, core.Options{}))
	m, err := mih.FromGroups(frozen.Groups(), mih.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return codes, frozen, m
}

// bruteOrder is the oracle: every id with its distance to q, sorted by
// (distance, id); a top-k is its first k pairs.
func bruteOrder(codes []bitvec.Code, q bitvec.Code) ([]int, []int) {
	ids := make([]int, len(codes))
	dist := make([]int, len(codes))
	for id, c := range codes {
		ids[id], dist[id] = id, q.Distance(c)
	}
	slices.SortFunc(ids, func(a, b int) int {
		if dist[a] != dist[b] {
			return dist[a] - dist[b]
		}
		return a - b
	})
	dists := make([]int, len(ids))
	for i, id := range ids {
		dists[i] = dist[id]
	}
	return ids, dists
}

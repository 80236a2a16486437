package core

import (
	"math/rand"
	"sort"
	"testing"
)

// bruteTopK is the oracle: sort all (distance, id) pairs, take k.
func bruteTopK(all [][2]int, k int) [][2]int {
	sorted := append([][2]int(nil), all...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func TestTopKAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 8; trial++ {
		bitsLen := []int{16, 32, 64, 100}[trial%4]
		codes := clusteredCodes(rng, 200+rng.Intn(300), bitsLen, 6, 3)
		for _, idx := range arenaIndexes(codes) {
			sr := NewSearcher(idx)
			for qi := 0; qi < 10; qi++ {
				q := codes[rng.Intn(len(codes))].Clone()
				q.FlipBit(rng.Intn(bitsLen))
				k := 1 + rng.Intn(20)
				all := make([][2]int, len(codes))
				for id, c := range codes {
					all[id] = [2]int{q.Distance(c), id}
				}
				want := bruteTopK(all, k)
				ids, dists := sr.TopK(q, k)
				if len(ids) != len(want) {
					t.Fatalf("%T k=%d: got %d results, want %d", idx, k, len(ids), len(want))
				}
				for i := range ids {
					if ids[i] != want[i][1] || dists[i] != want[i][0] {
						t.Fatalf("%T k=%d pos %d: got (id=%d,d=%d) want (id=%d,d=%d)",
							idx, k, i, ids[i], dists[i], want[i][1], want[i][0])
					}
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	codes := clusteredCodes(rng, 50, 32, 3, 2)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sr := NewSearcher(idx)
	if ids, dists := sr.TopK(codes[0], 0); ids != nil || dists != nil {
		t.Fatal("k=0 must return nothing")
	}
	// k larger than the index returns every tuple.
	ids, _ := sr.TopK(codes[0], 10*len(codes))
	if len(ids) != idx.Len() {
		t.Fatalf("k>n returned %d of %d", len(ids), idx.Len())
	}
	// Exact-match query puts its own id first at distance 0.
	ids, dists := sr.TopK(codes[7], 3)
	if dists[0] != 0 {
		t.Fatalf("nearest distance %d, want 0", dists[0])
	}
	found := false
	for i, id := range ids {
		if id == 7 && dists[i] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query's own id missing from top-k: %v %v", ids, dists)
	}
}

package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"haindex/internal/bitvec"
)

// topK is the k nearest tuples to q by TopKByRadius over sr.Search.
func topK(sr *Searcher, q bitvec.Code, k int) ([]int, []int) {
	return TopKByRadius(q.Len(), k, func(h int) []int { return sr.Search(q, h) })
}

// TestTopKByRadius drives the escalation with a scripted search: ids come
// back unsorted within a radius and again at every later one, and the
// result must still be ordered by (distance, id), stop at the first radius
// that holds k, give the kth place's ties to the smaller ids, end at length,
// and never size anything by k.
func TestTopKByRadius(t *testing.T) {
	// script[h] is what search(h) returns: cumulative, unsorted, repeating.
	script := [][]int{
		{7},
		{9, 7, 3, 1},
		{5, 9, 1, 7, 2, 3},
		{2, 3, 1, 7, 9, 5},
	}
	cases := []struct {
		length, k  int
		ids, dists []int
		lastRadius int // the last h searched; -1 for none
	}{
		{3, 1, []int{7}, []int{0}, 0},
		// The band at h=1 is {1, 3, 9}: 9 loses the tie for the 3rd place.
		{3, 3, []int{7, 1, 3}, []int{0, 1, 1}, 1},
		{3, 4, []int{7, 1, 3, 9}, []int{0, 1, 1, 1}, 1},
		{3, 5, []int{7, 1, 3, 9, 2}, []int{0, 1, 1, 1, 2}, 2},
		// Fewer than k within length: every id, radii 0..length searched.
		{3, 10, []int{7, 1, 3, 9, 2, 5}, []int{0, 1, 1, 1, 2, 2}, 3},
		{1, 10, []int{7, 1, 3, 9}, []int{0, 1, 1, 1}, 1},
		{3, 0, nil, nil, -1},
		{3, -4, nil, nil, -1},
	}
	for _, c := range cases {
		last := -1
		ids, dists := TopKByRadius(c.length, c.k, func(h int) []int {
			last = h
			return append([]int(nil), script[h]...)
		})
		if !slices.Equal(ids, c.ids) || !slices.Equal(dists, c.dists) || last != c.lastRadius {
			t.Errorf("length=%d k=%d: got %v at %v after radius %d, want %v at %v after radius %d",
				c.length, c.k, ids, dists, last, c.ids, c.dists, c.lastRadius)
		}
	}

	// A client's k can be as large as 1<<20: ten tuples cost ten tuples.
	buf := make([]int, 10)
	search := func(h int) []int {
		for i := range buf {
			buf[i] = len(buf) - 1 - i
		}
		return buf
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ids, dists := TopKByRadius(64, 1<<20, search)
	runtime.ReadMemStats(&after)
	if len(ids) != 10 || len(dists) != 10 || ids[0] != 0 || ids[9] != 9 || dists[9] != 0 {
		t.Fatalf("k=1<<20 over 10 tuples: got %v at %v", ids, dists)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("k=1<<20 over 10 tuples allocated %d bytes", grew)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	codes := clusteredCodes(rng, 50, 32, 3, 2)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sr := NewSearcher(idx)
	if ids, dists := topK(sr, codes[0], 0); ids != nil || dists != nil {
		t.Fatal("k=0 must return nothing")
	}
	// k larger than the index returns every tuple.
	ids, _ := topK(sr, codes[0], 10*len(codes))
	if len(ids) != idx.Len() {
		t.Fatalf("k>n returned %d of %d", len(ids), idx.Len())
	}
	// Exact-match query puts its own id first at distance 0.
	ids, dists := topK(sr, codes[7], 3)
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

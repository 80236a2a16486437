package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortIDsMatchesSlicesSort: the linear ordering agrees with the
// comparison sort on every shape of input an engine can hand it — either side
// of radixMin, already ordered, reversed, ids that differ in one byte only or
// share their high bits (a skipped pass), ids past 2^22 (a fourth pass and
// more) and negative ones (the fallback) — whatever the scratch it is given.
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := []struct {
		name string
		id   func(i, n int) int
	}{
		{"random", func(i, n int) int { return rng.Intn(300000) }},
		{"duplicates", func(i, n int) int { return rng.Intn(7) }},
		{"sorted", func(i, n int) int { return 3 * i }},
		{"reversed", func(i, n int) int { return 3 * (n - i) }},
		{"high bits equal", func(i, n int) int { return 0x5a5a0000 | rng.Intn(1<<16) }},
		{"one byte differs", func(i, n int) int { return 0x123400ff | rng.Intn(256)<<8 }},
		{"middle byte equal", func(i, n int) int { return rng.Intn(256)<<16 | 0x4200 | rng.Intn(256) }},
		{"past 2^22", func(i, n int) int { return 1<<22 + rng.Intn(1<<40) }},
		{"all equal", func(i, n int) int { return 77 }},
		{"some negative", func(i, n int) int { return rng.Intn(2000) - 1000 }},
		{"all negative", func(i, n int) int { return -1 - rng.Intn(1<<30) }},
	}
	var scratch []int
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 63, 64, 65, 10000} {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = shape.id(i, n)
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			scratch = sortIDs(ids, scratch)
			if !slices.Equal(ids, want) {
				t.Fatalf("%s, %d ids: not what slices.Sort gives", shape.name, n)
			}
			if n == 65 {
				scratch = nil // the next length has to grow it again
			}
		}
	}
}

func BenchmarkSortIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{500, 10000} {
		src := make([]int, n)
		for i := range src {
			src[i] = rng.Intn(300000)
		}
		ids := make([]int, n)
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			var scratch []int
			for i := 0; i < b.N; i++ {
				copy(ids, src)
				scratch = sortIDs(ids, scratch)
			}
		})
		b.Run(fmt.Sprintf("slices.Sort/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(ids, src)
				slices.Sort(ids)
			}
		})
	}
}

package core

import (
	"math/rand"
	"testing"
)

func BenchmarkHBuildSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDynamic(codes, nil, Options{})
	}
}

func BenchmarkHSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := BuildDynamic(codes, nil, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(codes[i%len(codes)], 3)
	}
}

func BenchmarkDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := BuildDynamic(codes, nil, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(codes)
		idx.Delete(id, codes[id])
		idx.Insert(id, codes[id])
	}
}

package planner

import (
	"math/rand"
	"testing"

	"haindex/internal/core"
	"haindex/internal/mih"
)

func BenchmarkPlannedSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	codes := clustered(rng, 20000, 32, 16, 3)
	p, err := Auto(codes, nil, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []int{3, 28} {
		b.Run(map[int]string{3: "tight", 28: "loose"}[h], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Select(codes[i%len(codes)], h)
			}
		})
	}
}

// benchmarkShape builds the engines of the benchmark's shard shape — 150k
// clustered 64-bit codes (clusters of 1000, 3 flips), Gray-sorted into one
// frozen HA-Index, with MIH on its leaf arena.
func benchmarkShape(tb testing.TB) Engines {
	codes := clustered(rand.New(rand.NewSource(1)), 150000, 64, 150, 3)
	rows := make([]uint64, 0, len(codes))
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	ha := core.BuildFrozen(64, rows, nil, core.Options{})
	m, err := mih.FromGroups(ha.Groups(), mih.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return Engines{HA: ha, MIH: m, Groups: ha.Groups()}
}

// BenchmarkNew is what a default haserve pays for the planner at start-up:
// the counted grid over the benchmark's shard shape.
func BenchmarkNew(b *testing.B) {
	eng := benchmarkShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(eng, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

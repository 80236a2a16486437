package server

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/wire"
)

// startupArena is the benchmark's shard shape: a snapshot of 150k clustered
// 64-bit codes (clusters of 1000, 3 flips), with the codes behind it.
func startupArena(b *testing.B) (string, []bitvec.Code) {
	path, _, codes, _ := clusteredArena(b, rand.New(rand.NewSource(1)), 150000, 64, 1000)
	return path, codes
}

// BenchmarkLoadSnapshotFile is what a default haserve pays at start-up on
// that shape. "planned" times the whole load, as it always has: map the
// snapshot, wrap it as a read-only shard, and wait until its one segment's
// background plan (MIH's tables, then the counted plan) has landed. "ready"
// times LoadSnapshotFile's return alone — the map and the wrap, after which
// the server answers, through HA until the plan lands — and leaves the plan
// to Close, off the clock; its allocation count takes in whatever the plan
// allocated before LoadSnapshotFile returned.
func BenchmarkLoadSnapshotFile(b *testing.B) {
	path, _ := startupArena(b)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := LoadSnapshotFile(path, Options{Mmap: true})
			if err != nil {
				b.Fatal(err)
			}
			waitPlanned(b, s.Obs())
			s.Close()
		}
	})
	b.Run("ready", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := LoadSnapshotFile(path, Options{Mmap: true})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkTopK is one k=10 top-k request of one query through answerTopK,
// over shards of 150k 64-bit codes loaded as LoadSnapshotFile loads them
// (mmap) and planned: "clustered" is the startup shape with queries a stored
// code 2 bits away, "uniform" holds random codes and random queries, whose
// 10th neighbour lies about 15 bits out.
func BenchmarkTopK(b *testing.B) {
	for _, shape := range []struct {
		name       string
		perCluster int
		near       bool
	}{{"clustered", 1000, true}, {"uniform", 1, false}} {
		path, _, codes, _ := clusteredArena(b, rand.New(rand.NewSource(1)), 150000, 64, shape.perCluster)
		rng := rand.New(rand.NewSource(2))
		payloads := make([][]byte, 256)
		for i := range payloads {
			q := bitvec.Rand(rng, 64)
			if shape.near {
				q = codes[rng.Intn(len(codes))].Clone()
				q.FlipBit(rng.Intn(64))
				q.FlipBit(rng.Intn(64))
			}
			payloads[i] = wire.TopKReq{K: 10, Queries: []bitvec.Code{q}}.Append(nil)
		}
		b.Run(shape.name, func(b *testing.B) {
			s, err := LoadSnapshotFile(path, Options{Mmap: true, Searchers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			waitPlanned(b, s.Obs())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rt, _ := s.answerTopK(payloads[i%len(payloads)], nil); rt != wire.MsgTopKOK {
					b.Fatalf("top-k answered %s", rt)
				}
			}
		})
	}
}

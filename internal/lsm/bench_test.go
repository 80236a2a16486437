package lsm

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// BenchmarkShardInsert times one insert of a fresh id into a memtable that
// fills to the default 4096 rows and starts over — the write path of a
// `churn` shard between two seals.
func BenchmarkShardInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	codes := clustered(rng, 4096, 64, 64, 6)
	var s *Shard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(codes) == 0 {
			b.StopTimer()
			s = New(64, Options{MemtableMax: -1, CompactAt: -1})
			b.StartTimer()
		}
		s.Insert(i, codes[i%len(codes)])
	}
}

// churnShape is the stack a `churn` compaction meets: a 100k-tuple base
// segment under eight sealed 4096-row memtables, a tenth of the base
// tombstoned — about 123k survivors.
type churnShape struct {
	codes   []bitvec.Code
	boot    *core.FrozenIndex
	victims []int
}

const churnBase, churnDelta = 100000, 8 * 4096

func newChurnShape() churnShape {
	rng := rand.New(rand.NewSource(2))
	codes := clustered(rng, churnBase+churnDelta, 64, 2000, 8)
	ids := make([]int, churnBase)
	for i := range ids {
		ids[i] = i
	}
	sh := churnShape{codes: codes, boot: buildFrozen(codes[:churnBase], ids, core.Options{})}
	for id := 0; id < churnBase; id += 10 {
		sh.victims = append(sh.victims, id)
	}
	return sh
}

func (sh churnShape) shard(b testing.TB) *Shard {
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	if err := s.Bootstrap(sh.boot); err != nil {
		b.Fatal(err)
	}
	for j, c := range sh.codes[churnBase:] {
		s.Insert(churnBase+j, c)
		if (j+1)%4096 == 0 {
			s.Seal(false)
		}
	}
	for _, id := range sh.victims {
		s.Delete(id)
	}
	return s
}

// BenchmarkShardCompact times one compaction of `churn`'s shape.
func BenchmarkShardCompact(b *testing.B) {
	sh := newChurnShape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sh.shard(b)
		b.StartTimer()
		s.Compact()
		b.StopTimer()
		if st := s.Stats(); st.Segments != 1 || st.Len != churnBase+churnDelta-len(sh.victims) {
			b.Fatalf("after compaction: %+v", st)
		}
		s.Close()
		b.StartTimer()
	}
}

// TestShardCompactAllocs pins what building straight into the arena bought:
// one compaction of `churn`'s shape allocates arrays, not objects — a few
// dozen slabs whatever the survivor count. Through the pointer form it was
// 2.42 million allocations.
func TestShardCompactAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds churn's 132k-tuple stack")
	}
	s := newChurnShape().shard(t)
	defer s.Close()
	if allocs := testing.AllocsPerRun(1, s.Compact); allocs > 2000 {
		t.Fatalf("a compaction of ~123k survivors made %.0f allocations, want at most 2000", allocs)
	}
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("after compaction: %+v", st)
	}
}

// BenchmarkShardSeal times one seal of a full default memtable: the build
// every reader and writer of the shard waits out.
func BenchmarkShardSeal(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	codes := clustered(rng, 4096, 64, 64, 6)
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, c := range codes {
			s.Insert(i*len(codes)+j, c)
		}
		if i%64 == 63 {
			s.Compact() // keep the stack, and Seal's copy of it, short
		}
		b.StartTimer()
		s.Seal(false)
	}
}

// BenchmarkShardSearchCompacted times one h=3 select over the segment that
// compaction leaves — its dist/op is how selective the rebuilt hierarchy is.
func BenchmarkShardSearchCompacted(b *testing.B) {
	sh := newChurnShape()
	s := sh.shard(b)
	defer s.Close()
	s.Compact()
	rng := rand.New(rand.NewSource(3))
	queries := make([]bitvec.Code, 512)
	for i := range queries {
		queries[i] = sh.codes[rng.Intn(len(sh.codes))].Clone()
		queries[i].FlipBit(rng.Intn(64))
	}
	var stats core.SearchStats
	var out []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.SearchInto(queries[i%len(queries)], 3, out[:0], &stats)
	}
	b.ReportMetric(float64(stats.DistanceComputations)/float64(b.N), "dist/op")
}

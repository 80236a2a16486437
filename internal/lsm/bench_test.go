package lsm

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/planner"
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
// dozen slabs whatever the survivor count, and a few hundred more to plan
// the output. Through the pointer form it was 2.42 million allocations.
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
// compaction leaves, through the engine its plan picks; the counts are the
// planned engine's work a query (see reportEngineWork).
func BenchmarkShardSearchCompacted(b *testing.B) {
	sh := newChurnShape()
	s := sh.shard(b)
	defer s.Close()
	s.Compact()
	benchSearch(b, s, sh.codes)
}

// BenchmarkShardSearchChurn times one h=3 select over the stack a `churn`
// shard serves between compactions: the 100k base under two sealed 4096-row
// memtables, each planned by its seal, and half a memtable.
func BenchmarkShardSearchChurn(b *testing.B) {
	sh := newChurnShape()
	s := New(64, Options{MemtableMax: -1, CompactAt: -1})
	defer s.Close()
	if err := s.Bootstrap(sh.boot); err != nil {
		b.Fatal(err)
	}
	for j, c := range sh.codes[churnBase : churnBase+2*4096+2048] {
		s.Insert(churnBase+j, c)
		if (j+1)%4096 == 0 {
			s.Seal(false)
		}
	}
	if st := s.Stats(); st.Segments != 3 || st.MemtableSize != 2048 {
		b.Fatalf("stack: %+v", st)
	}
	benchSearch(b, s, sh.codes)
}

// benchSearch times h=3 selects over s with queries one bit off codes, then
// reports the work a query does by engine, counted on a second pass over
// the same queries: HA's distance computations, MIH's probes and
// verifications, and the groups the scan reads — the memtable's rows
// included.
func benchSearch(b *testing.B, s *Shard, codes []bitvec.Code) {
	const h = 3
	rng := rand.New(rand.NewSource(3))
	queries := make([]bitvec.Code, 512)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))].Clone()
		queries[i].FlipBit(rng.Intn(64))
	}
	var stats core.SearchStats
	var out []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.SearchInto(queries[i%len(queries)], h, planner.UsePlan, out[:0], &stats)
	}
	b.StopTimer()

	var work [planner.UseScan + 1]core.SearchStats
	s.mu.RLock()
	for _, q := range queries {
		work[planner.UseScan].DistanceComputations += len(s.mem.IDs)
		for _, seg := range s.state.Load().segments {
			st := seg.strategy(h, planner.UsePlan)
			out = s.searchSegment(seg, st, q, h, out[:0], &work[st])
		}
	}
	s.mu.RUnlock()
	per := func(n int) float64 { return float64(n) / float64(len(queries)) }
	b.ReportMetric(per(work[planner.UseHA].DistanceComputations), "ha-dist/op")
	b.ReportMetric(per(work[planner.UseMIH].NodesVisited), "mih-probes/op")
	b.ReportMetric(per(work[planner.UseMIH].DistanceComputations), "mih-verify/op")
	b.ReportMetric(per(work[planner.UseScan].DistanceComputations), "scan-groups/op")
}

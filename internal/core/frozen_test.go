package core

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
)

// frozenEnv builds a clustered dataset, its pointer index, and the frozen
// compilation, plus a mixed query set (members and random outsiders).
func frozenEnv(tb testing.TB, seed int64, n, bitsLen int) ([]bitvec.Code, []bitvec.Code, *DynamicIndex, *FrozenIndex) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	codes := clusteredCodes(rng, n, bitsLen, 10, 3)
	queries := make([]bitvec.Code, 32)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = bitvec.Rand(rng, bitsLen)
		} else {
			queries[i] = codes[rng.Intn(len(codes))]
		}
	}
	dyn := BuildDynamic(codes, nil, Options{})
	return codes, queries, dyn, Freeze(dyn)
}

// TestFreezeSearchEquivalence: the property pinning the tentpole — for random
// datasets across one-word and multi-word code widths and every threshold in
// 0..8, Freeze∘Search answers exactly the brute-force oracle and exactly the
// pointer walk it was compiled from.
func TestFreezeSearchEquivalence(t *testing.T) {
	for _, bitsLen := range []int{32, 64, 128} {
		codes, queries, dyn, frozen := frozenEnv(t, int64(900+bitsLen), 900, bitsLen)
		if frozen.Len() != dyn.Len() || frozen.Length() != dyn.Length() {
			t.Fatalf("L=%d: frozen (%d tuples, %d bits) != dynamic (%d tuples, %d bits)",
				bitsLen, frozen.Len(), frozen.Length(), dyn.Len(), dyn.Length())
		}
		fsr := NewSearcher(frozen)
		dsr := NewPointerSearcher(dyn)
		for h := 0; h <= 8; h++ {
			for qi, q := range queries {
				got := append([]int(nil), fsr.Search(q, h)...)
				if want := oracle(codes, q, h); !equalIDs(got, want) {
					t.Fatalf("L=%d h=%d q#%d: frozen %d ids, oracle %d", bitsLen, h, qi, len(got), len(want))
				}
				if ptr := dsr.Search(q, h); !equalIDs(got, ptr) {
					t.Fatalf("L=%d h=%d q#%d: frozen %d ids, pointer walk %d", bitsLen, h, qi, len(got), len(ptr))
				}
			}
		}
	}
}

// TestFreezeFlushesBuffer: freezing an index with unflushed inserts must
// flush them first — buffered tuples appear in frozen results.
func TestFreezeFlushesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	codes := clusteredCodes(rng, 400, 32, 8, 3)
	dyn := BuildDynamic(codes[:300], nil, Options{BufferMax: 1 << 30})
	for i := 300; i < len(codes); i++ {
		dyn.Insert(i, codes[i])
	}
	frozen := Freeze(dyn)
	if frozen.Len() != len(codes) {
		t.Fatalf("frozen index has %d tuples, want %d (buffer dropped?)", frozen.Len(), len(codes))
	}
	sr := NewSearcher(frozen)
	for _, q := range codes[290:310] {
		if got, want := sr.Search(q, 3), oracle(codes, q, 3); !equalIDs(got, want) {
			t.Fatalf("frozen search over buffered build: got %d ids, want %d", len(got), len(want))
		}
	}
}

// TestFrozenSearchConcurrent: one FrozenIndex, many Searchers in parallel.
func TestFrozenSearchConcurrent(t *testing.T) {
	codes, queries, _, frozen := frozenEnv(t, 73, 1000, 64)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int) {
			sr := NewSearcher(frozen)
			for r := 0; r < 20; r++ {
				q := queries[(seed+r)%len(queries)]
				if got, want := sr.Search(q, 4), oracle(codes, q, 4); !equalIDs(got, want) {
					done <- &searchMismatchError{len(got), len(want)}
					return
				}
				sr.TopK(q, 5)
			}
			done <- nil
		}(w * 7)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type searchMismatchError struct{ got, want int }

func (e *searchMismatchError) Error() string {
	return "concurrent frozen search mismatch"
}

// TestFrozenSizeBytes: the arena footprint is positive and grows with the
// dataset; sanity for the habench resident-bytes row.
func TestFrozenSizeBytes(t *testing.T) {
	_, _, _, small := frozenEnv(t, 81, 200, 32)
	_, _, _, large := frozenEnv(t, 81, 2000, 32)
	if small.SizeBytes() <= 0 || large.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("SizeBytes: small=%d large=%d", small.SizeBytes(), large.SizeBytes())
	}
}

func BenchmarkFreeze(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := BuildDynamic(codes, nil, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Freeze(idx)
	}
}

func BenchmarkSearcherSearchFrozen(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sr := NewSearcher(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Search(codes[i%len(codes)], 3)
	}
}

func BenchmarkFrozenTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sr := NewSearcher(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.TopK(codes[i%len(codes)], 10)
	}
}

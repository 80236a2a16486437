package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// buildStreamedArena streams n clustered bitsLen-bit codes (Gray-sorted, as
// the shard pipeline feeds them) through a FrozenStreamWriter in chunkSize
// chunks and decodes the resulting v4 image.
func buildStreamedArena(tb testing.TB, n, bitsLen, chunkSize int) *FrozenIndex {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n + bitsLen)))
	codes := clusteredCodes(rng, n, bitsLen, 10, 3)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i
	}
	gray.Sort(codes, ids)
	f, err := DecodeArenaBytes(streamArena(tb, codes, ids, chunkSize, Options{}))
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// streamArena feeds the tuples, in the order given, through a
// FrozenStreamWriter that builds every chunk tuples on their own, and returns
// the v4 image.
func streamArena(tb testing.TB, codes []bitvec.Code, ids []int, chunk int, opts Options) []byte {
	tb.Helper()
	sw, err := NewFrozenStreamWriter(codes[0].Len(), chunk, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for i, c := range codes {
		if err := sw.Add(ids[i], c); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sw.Finish(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// chunkedArena streams a small clustered dataset (duplicate codes included),
// unsorted, in 7-tuple chunks: a forest with scattered roots, shifted
// references and a code in two groups.
func chunkedArena(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(163))
	codes := clusteredCodes(rng, 60, 32, 3, 2)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i
	}
	return streamArena(tb, codes, ids, 7, Options{})
}

// TestStreamedChunkEdges (TestFreezeChunkedEquivalence while an in-memory
// chunked freeze existed beside the writer): a streamed arena answers every
// query at every threshold with the id set the monolithic build answers, at
// chunk sizes on both sides of the edges (one tuple a chunk, n-1, n, n+1) and
// fed out of Gray order, holds the child-after-parent order the walks and the
// decoder rely on, and counts its tuples and groups as the sum over the
// chunks.
func TestStreamedChunkEdges(t *testing.T) {
	for _, bitsLen := range []int{32, 130} {
		rng := rand.New(rand.NewSource(int64(bitsLen)))
		codes := clusteredCodes(rng, 150, bitsLen, 6, 2)
		codes = append(codes, codes[:20]...) // codes that recur, across chunks too
		n := len(codes)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = 1000 + i
		}
		queries := make([]bitvec.Code, 12)
		for i := range queries {
			if queries[i] = codes[rng.Intn(n)]; i%4 == 0 {
				queries[i] = bitvec.Rand(rng, bitsLen)
			}
		}
		msr := NewSearcher(Freeze(BuildDynamic(codes, ids, Options{})))
		for _, chunk := range []int{1, 7, n - 1, n, n + 1} {
			f, err := DecodeArenaBytes(streamArena(t, codes, ids, chunk, Options{}))
			if err != nil {
				t.Fatalf("L=%d chunk=%d: streamed arena does not decode: %v", bitsLen, chunk, err)
			}
			wantGroups := 0
			for lo := 0; lo < n; lo += chunk {
				distinct := map[string]bool{}
				for _, c := range codes[lo:min(lo+chunk, n)] {
					distinct[c.Key()] = true
				}
				wantGroups += len(distinct)
			}
			if f.Len() != n || len(f.idSlab) != n || f.GroupCount() != wantGroups {
				t.Fatalf("L=%d chunk=%d: %d tuples, %d ids, %d groups; want %d, %d, %d", bitsLen, chunk, f.Len(), len(f.idSlab), f.GroupCount(), n, n, wantGroups)
			}
			for nid := 0; nid < f.NodeCount(); nid++ {
				for _, c := range f.childList[f.childStart[nid]:f.childStart[nid+1]] {
					if int(c) <= nid {
						t.Fatalf("L=%d chunk=%d: node %d lists child %d", bitsLen, chunk, nid, c)
					}
				}
			}
			fsr := NewSearcher(f)
			for h := 0; h <= bitsLen; h++ {
				for qi, q := range queries {
					if got, want := fsr.Search(q, h), msr.Search(q, h); !equalIDs(got, want) {
						t.Fatalf("L=%d chunk=%d h=%d q#%d: streamed %d ids, monolithic %d", bitsLen, chunk, h, qi, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestStreamWriterAddCopiesTheWords: a producer may decode every tuple into
// one reused buffer. The writer used to keep the caller's word slice until the
// chunk flushed, so overwriting it corrupted every pending tuple.
func TestStreamWriterAddCopiesTheWords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := clusteredCodes(rng, 40, 70, 4, 2)
	sw, err := NewFrozenStreamWriter(70, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := bitvec.New(70) // the one buffer every tuple passes through
	for id, c := range codes {
		copy(buf.Words(), c.Words())
		if err := sw.Add(id, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf.Words() {
			buf.Words()[i] = ^uint64(0)
		}
	}
	var img bytes.Buffer
	if err := sw.Finish(&img); err != nil {
		t.Fatal(err)
	}
	f, err := DecodeArenaBytes(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sr := NewSearcher(f)
	for id, c := range codes {
		found := false
		for _, got := range sr.Search(c, 0) {
			found = found || got == id
		}
		if !found {
			t.Fatalf("tuple %d is not under the code it was added with", id)
		}
	}
}

// TestStreamedEquivalence: the chunked streaming build answers Search and
// TopK exactly like a monolithic build over the same tuples — the forest of
// per-chunk hierarchies covers disjoint subsets whose union is the whole
// partition. Exercised across chunk sizes that divide the input unevenly. The
// same forest laid by Forest from the chunks' arenas is the writer's image.
func TestStreamedEquivalence(t *testing.T) {
	for _, bitsLen := range []int{32, 128} {
		for _, chunkSize := range []int{64, 257, 1 << 20} {
			rng := rand.New(rand.NewSource(int64(bitsLen * chunkSize)))
			codes := clusteredCodes(rng, 800, bitsLen, 10, 3)
			ids := make([]int, len(codes))
			for i := range ids {
				ids[i] = i
			}
			mono := Freeze(BuildDynamic(codes, ids, Options{}))

			sortedCodes := append([]bitvec.Code(nil), codes...)
			sortedIDs := append([]int(nil), ids...)
			gray.Sort(sortedCodes, sortedIDs)
			streamed, err := DecodeArenaBytes(streamArena(t, sortedCodes, sortedIDs, chunkSize, Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Len() != mono.Len() {
				t.Fatalf("L=%d chunk=%d: streamed %d tuples, want %d", bitsLen, chunkSize, streamed.Len(), mono.Len())
			}

			queries := make([]bitvec.Code, 24)
			for i := range queries {
				if i%3 == 0 {
					queries[i] = bitvec.Rand(rng, bitsLen)
				} else {
					queries[i] = codes[rng.Intn(len(codes))]
				}
			}
			ssr, msr := NewSearcher(streamed), NewSearcher(mono)
			for h := 0; h <= 6; h += 2 {
				for qi, q := range queries {
					got := append([]int(nil), ssr.Search(q, h)...)
					if want := msr.Search(q, h); !equalIDs(got, want) {
						t.Fatalf("L=%d chunk=%d h=%d q#%d: streamed %d ids, monolithic %d", bitsLen, chunkSize, h, qi, len(got), len(want))
					}
				}
			}
			for _, k := range []int{1, 9, 50} {
				for qi, q := range queries {
					gi, gd := ssr.TopK(q, k)
					wi, wd := msr.TopK(q, k)
					if !equalIDs(gi, wi) {
						t.Fatalf("L=%d chunk=%d k=%d q#%d: streamed ids %v, want %v", bitsLen, chunkSize, k, qi, gi, wi)
					}
					for i := range gd {
						if gd[i] != wd[i] {
							t.Fatalf("L=%d chunk=%d k=%d q#%d: dist[%d]=%d, want %d", bitsLen, chunkSize, k, qi, i, gd[i], wd[i])
						}
					}
				}
			}
		}
	}

	// The forest arm: Forest over the chunks' own BuildFrozen arenas is the
	// stream writer's image for those chunks byte for byte, decodes, and
	// answers Search and TopK as a brute scan does.
	for _, bitsLen := range []int{8, 64, 100} {
		rng := rand.New(rand.NewSource(int64(bitsLen)))
		codes := clusteredCodes(rng, 120, bitsLen, 5, 2)
		codes = append(codes, codes[:15]...) // codes that recur, across chunks too
		n := len(codes)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = 7 * i
		}
		queries := make([]bitvec.Code, 10)
		for i := range queries {
			if queries[i] = codes[rng.Intn(n)]; i%3 == 0 {
				queries[i] = bitvec.Rand(rng, bitsLen)
			}
		}
		for _, chunk := range []int{1, 7, n - 1, n, n + 1} {
			var parts []*FrozenIndex
			for lo := 0; lo < n; lo += chunk {
				hi := min(lo+chunk, n)
				parts = append(parts, BuildFrozen(bitsLen, packRows(codes[lo:hi]), append([]int(nil), ids[lo:hi]...), Options{}))
			}
			forest, err := Forest(parts...)
			if err != nil {
				t.Fatal(err)
			}
			var img bytes.Buffer
			if err := forest.EncodeArena(&img, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Bytes(), streamArena(t, codes, ids, chunk, Options{})) {
				t.Fatalf("L=%d chunk=%d: the forest's image is not the stream writer's", bitsLen, chunk)
			}
			if _, err := DecodeArenaBytes(img.Bytes()); err != nil {
				t.Fatalf("L=%d chunk=%d: forest image refused: %v", bitsLen, chunk, err)
			}
			sr := NewSearcher(forest)
			for qi, q := range queries {
				byDist := make([][2]int, n) // (distance, id): the brute top-k order
				for i, c := range codes {
					byDist[i] = [2]int{q.Distance(c), ids[i]}
				}
				for h := 0; h <= bitsLen; h += 1 + bitsLen/10 {
					var want []int
					for _, p := range byDist {
						if p[0] <= h {
							want = append(want, p[1])
						}
					}
					if got := sr.Search(q, h); !equalIDs(got, want) {
						t.Fatalf("L=%d chunk=%d h=%d q#%d: forest %d ids, brute %d", bitsLen, chunk, h, qi, len(got), len(want))
					}
				}
				slices.SortFunc(byDist, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
				for _, k := range []int{1, 9, n} {
					gi, gd := sr.TopK(q, k)
					if len(gi) != k {
						t.Fatalf("L=%d chunk=%d k=%d q#%d: %d results", bitsLen, chunk, k, qi, len(gi))
					}
					for i := range gi {
						if gd[i] != byDist[i][0] || gi[i] != byDist[i][1] {
							t.Fatalf("L=%d chunk=%d k=%d q#%d: result %d is (%d, id %d), brute (%d, id %d)", bitsLen, chunk, k, qi, i, gd[i], gi[i], byDist[i][0], byDist[i][1])
						}
					}
				}
			}
		}
	}
}

// TestStreamedEmpty: finishing with no tuples yields a valid empty arena.
func TestStreamedEmpty(t *testing.T) {
	sw, err := NewFrozenStreamWriter(64, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := DecodeArenaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 || f.GroupCount() != 0 {
		t.Fatalf("empty stream decoded to %d tuples, %d groups", f.Len(), f.GroupCount())
	}
	sr := NewSearcher(f)
	if got := sr.Search(bitvec.New(64), 10); len(got) != 0 {
		t.Fatalf("empty arena answered %d ids", len(got))
	}
}

// TestStreamWriterReuseRejected: Add/Finish after Finish must error, not
// corrupt spools.
func TestStreamWriterReuseRejected(t *testing.T) {
	sw, err := NewFrozenStreamWriter(32, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(1, bitvec.FromUint64(5, 32)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(2, bitvec.FromUint64(6, 32)); err == nil {
		t.Fatal("Add accepted after Finish")
	}
	if err := sw.Finish(&buf); err == nil {
		t.Fatal("Finish accepted twice")
	}
	// Wrong-width codes fail fast.
	sw2, err := NewFrozenStreamWriter(32, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Abort()
	if err := sw2.Add(1, bitvec.FromUint64(5, 16)); err == nil {
		t.Fatal("Add accepted a 16-bit code into a 32-bit stream")
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// packRows lays codes out as the tuple slab BuildFrozen takes.
func packRows(codes []bitvec.Code) []uint64 {
	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return rows
}

// checkBuildFrozen builds the codes both ways and fails unless BuildFrozen's
// arena image is byte for byte the one Freeze(BuildDynamic(...)) encodes,
// decodes again (the decoder validates the structure), and answers every
// threshold 0, 3, 6, … L as a brute scan does. ids may be nil.
func checkBuildFrozen(t testing.TB, what string, codes []bitvec.Code, ids []int, opts Options) {
	t.Helper()
	length := codes[0].Len()
	var want, got bytes.Buffer
	if err := Freeze(BuildDynamic(codes, ids, opts)).EncodeArena(&want, true); err != nil {
		t.Fatal(err)
	}
	var idsCopy []int
	if ids != nil {
		idsCopy = append([]int(nil), ids...)
	}
	f := BuildFrozen(length, packRows(codes), idsCopy, opts)
	if err := f.EncodeArena(&got, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: BuildFrozen arena (%d bytes, %d nodes, %d groups) differs from the pointer build's (%d bytes)",
			what, got.Len(), f.NodeCount(), f.GroupCount(), want.Len())
	}
	decoded, err := DecodeArenaBytes(got.Bytes())
	if err != nil {
		t.Fatalf("%s: arena does not decode: %v", what, err)
	}
	rng := rand.New(rand.NewSource(int64(len(codes))))
	fsr, dsr := NewSearcher(f), NewSearcher(decoded)
	for h := 0; h <= length; h += 3 {
		q := codes[rng.Intn(len(codes))]
		if h%2 == 1 {
			q = bitvec.Rand(rng, length)
		}
		var brute []int
		for i, c := range codes {
			if c.Distance(q) <= h {
				if ids != nil {
					brute = append(brute, ids[i])
				} else {
					brute = append(brute, i)
				}
			}
		}
		if res := fsr.Search(q, h); !equalIDs(res, brute) {
			t.Fatalf("%s h=%d: built index answers %d ids, a scan %d", what, h, len(res), len(brute))
		}
		if res := dsr.Search(q, h); !equalIDs(res, brute) {
			t.Fatalf("%s h=%d: decoded index answers %d ids, a scan %d", what, h, len(res), len(brute))
		}
	}
}

// TestBuildFrozenMatchesPointerBuild is the identity the serving tier rests
// on: over code widths on both sides of a word, sizes from one tuple up,
// every build option, a tenth of the codes duplicated, random ids, and input
// in no particular order, BuildFrozen writes the arena the reference pointer
// build compiles to.
func TestBuildFrozenMatchesPointerBuild(t *testing.T) {
	optSets := []Options{
		{},
		{Window: 2},
		{Window: 4, Depth: 2},
		{NoConsolidate: true},
		{Window: 8, MinShared: 4},
		{LexOrder: true},
		{Window: 3, LexOrder: true, NoConsolidate: true},
	}
	sizes := []int{1, 2, 3, 50, 1000, 20000}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for _, length := range []int{8, 32, 64, 100, 130} {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(length*100003 + n)))
			codes := clusteredCodes(rng, n, length, n/40+1, 3)
			for i := 0; i < n/10; i++ {
				codes[rng.Intn(n)] = codes[rng.Intn(n)]
			}
			rng.Shuffle(n, func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
			ids := rng.Perm(3 * n)[:n]
			for oi, opts := range optSets {
				if n == 20000 && oi > 1 && length != 64 {
					continue // the big size runs every option at one width only
				}
				checkBuildFrozen(t, fmt.Sprintf("L=%d n=%d opts#%d", length, n, oi), codes, ids, opts)
			}
			checkBuildFrozen(t, fmt.Sprintf("L=%d n=%d positions", length, n), codes, nil, Options{})
		}
	}
	// One code held by every tuple: a single group, linked at the top.
	dup := make([]bitvec.Code, 40)
	for i := range dup {
		dup[i] = bitvec.Rand(rand.New(rand.NewSource(70)), 70)
	}
	checkBuildFrozen(t, "all duplicates", dup, nil, Options{})
}

// TestBuildFrozenSortsItsInput: the slab comes back in build order with its
// ids carried, and the index aliases none of it.
func TestBuildFrozenSortsItsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	codes := clusteredCodes(rng, 300, 48, 5, 2)
	rows, ids := packRows(codes), rng.Perm(300)
	byID := map[int]uint64{}
	for i, id := range ids {
		byID[id] = rows[i]
	}
	f := BuildFrozen(48, rows, ids, Options{})
	sorted := make([]bitvec.Code, len(rows))
	for i := range sorted {
		sorted[i] = bitvec.FromWordsShared(rows[i:i+1], 48)
	}
	if !gray.IsSorted(sorted) {
		t.Fatal("slab not left in Gray order")
	}
	for i, id := range ids {
		if byID[id] != rows[i] {
			t.Fatalf("row %d: id %d travelled without its code", i, id)
		}
	}
	want := NewSearcher(f).Search(codes[0], 4)
	want = append([]int(nil), want...)
	for i := range rows {
		rows[i], ids[i] = 0, -1
	}
	if got := NewSearcher(f).Search(codes[0], 4); !equalIDs(got, want) {
		t.Fatalf("index changed with the caller's slab: %d ids, then %d", len(want), len(got))
	}
}

// FuzzBuildFrozen: bytes to codes, a window and a depth, the same identity.
func FuzzBuildFrozen(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x03, 0x02, 0x06, 0x07, 0x05, 0x04}, uint8(8), uint8(2), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(40), uint8(4), uint8(8))
	f.Add(bytes.Repeat([]byte{0xAA, 0x55, 0xAA}, 60), uint8(70), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lengthRaw, window, depth uint8) {
		length := int(lengthRaw)%136 + 1
		per := (length + 7) / 8
		n := len(data) / per
		if n == 0 || n > 400 {
			return
		}
		codes := make([]bitvec.Code, n)
		for i := range codes {
			c := bitvec.New(length)
			for b := 0; b < length; b++ {
				c.SetBit(b, data[i*per+b/8]&(0x80>>uint(b%8)) != 0)
			}
			codes[i] = c
		}
		checkBuildFrozen(t, "fuzz", codes, nil, Options{Window: int(window % 70), Depth: int(depth % 10)})
	})
}

// TestBuildFrozenLevelLoopAnyOrder holds the level loop to the reference's on
// item orders no sort produces. Over sorted input two windows of one level
// never share a pattern (of the codes under a pattern, a window that ends at
// the cap and the next one sit in the same half of the order), so the matrix
// above never consolidates; shuffled distinct codes over a small universe do,
// in a fifth of the trials, and both builders take their leaves in the order given.
func TestBuildFrozenLevelLoopAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	consolidated := 0
	for trial := 0; trial < 400; trial++ {
		length := []int{5, 7, 66}[trial%3]
		opts := Options{Window: 2 + rng.Intn(3), Depth: 1 + rng.Intn(8), MinShared: 1 + rng.Intn(2), NoConsolidate: trial%7 == 0}.withDefaults(0)
		x := &DynamicIndex{opts: opts, length: length, byCode: map[string]*leafGroup{}}
		var order []*leafGroup
		var rows []uint64
		var ids []int
		for len(order) < 4+rng.Intn(40) {
			c := bitvec.New(length)
			for b := length - 5; b < length; b++ { // five free positions, wherever the word boundary falls
				c.SetBit(b, rng.Intn(2) == 1)
			}
			if _, seen := x.byCode[c.Key()]; seen {
				continue
			}
			for copies := 1 + rng.Intn(2); copies > 0; copies-- {
				g := x.addLeaf(len(ids), c)
				if len(g.ids) == 1 {
					order = append(order, g)
				}
				rows = append(rows, c.Words()...)
				ids = append(ids, len(ids))
			}
		}
		x.buildFromSorted(order)
		var want, got bytes.Buffer
		if err := Freeze(x).EncodeArena(&want, true); err != nil {
			t.Fatal(err)
		}
		f := buildFrozenSorted(length, rows, ids, opts)
		if err := f.EncodeArena(&got, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d (L=%d, %d groups, %+v): arenas differ", trial, length, len(order), opts)
		}
		opts.NoConsolidate = true
		if buildFrozenSorted(length, rows, ids, opts).NodeCount() != f.NodeCount() {
			consolidated++
		}
	}
	if consolidated < 40 {
		t.Fatalf("only %d of 400 trials consolidated a node: the test no longer covers what it is for", consolidated)
	}
}

// BenchmarkBuildFrozen: one build of a streamed chunk's size at the serving
// width and of a compaction chunk's at three words, straight into the arena
// and, for the ratio, through the pointer form it replaces. The slab is
// shuffled again for every build: a sorted one skips the sort.
func BenchmarkBuildFrozen(b *testing.B) {
	for _, shape := range []struct{ n, length int }{{150000, 64}, {16384, 130}} {
		rng := rand.New(rand.NewSource(int64(shape.n)))
		codes := clusteredCodes(rng, shape.n, shape.length, shape.n/200, 3)
		rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
		base := packRows(codes)
		name := fmt.Sprintf("%dx%d", shape.n, shape.length)
		b.Run(name+"/direct", func(b *testing.B) {
			rows, ids := make([]uint64, len(base)), make([]int, shape.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(rows, base)
				for j := range ids {
					ids[j] = j
				}
				BuildFrozen(shape.length, rows, ids, Options{})
			}
		})
		b.Run(name+"/pointer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Freeze(BuildDynamic(codes, nil, Options{}))
			}
		})
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"haindex/internal/bitvec"
)

// validArenaEncoding freezes a small clustered index and returns its v4
// arena image.
func validArenaEncoding(tb testing.TB, withIDs bool) ([]byte, *FrozenIndex) {
	tb.Helper()
	rng := rand.New(rand.NewSource(157))
	codes := clusteredCodes(rng, 60, 32, 3, 2)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i
	}
	frozen := Freeze(BuildDynamic(codes, ids, Options{}))
	var buf bytes.Buffer
	if err := frozen.EncodeArena(&buf, withIDs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), frozen
}

// hostAlias is canAliasArena as the host sets it, before any test changes it.
var hostAlias = canAliasArena

// setArenaAlias makes DecodeArenaBytes alias its input (where the host can)
// or copy every slab, as on a host that cannot, until tb ends. Callers must
// not run in parallel with another test of the package.
func setArenaAlias(tb testing.TB, alias bool) {
	tb.Cleanup(func() { canAliasArena = hostAlias })
	canAliasArena = alias && hostAlias
}

// TestArenaRoundTrip: EncodeArena∘DecodeArenaBytes is the identity on the
// search surface for both the copying and (when the host allows) aliasing
// parse, with and without id tables, and for an image that does not start
// 8-aligned, whose slabs the parse copies to their natural alignment.
func TestArenaRoundTrip(t *testing.T) {
	for _, withIDs := range []bool{true, false} {
		data, orig := validArenaEncoding(t, withIDs)
		if got := orig.EncodedSizeArena(withIDs); got != len(data) {
			t.Fatalf("withIDs=%v: EncodedSizeArena %d, encoded %d bytes", withIDs, got, len(data))
		}
		misaligned := append(make([]byte, 1, len(data)+1), data...)[1:]
		for _, alias := range []bool{false, true} {
			setArenaAlias(t, alias)
			for _, img := range [][]byte{data, misaligned} {
				got, err := DecodeArenaBytes(img)
				if err != nil {
					t.Fatalf("withIDs=%v alias=%v: %v", withIDs, alias, err)
				}
				if uintptr(unsafe.Pointer(unsafe.SliceData(got.codeSlab)))%8 != 0 {
					t.Fatalf("withIDs=%v alias=%v: the code slab is not 8-aligned", withIDs, alias)
				}
				if got.Length() != orig.Length() || got.GroupCount() != orig.GroupCount() ||
					got.NodeCount() != orig.NodeCount() || got.EdgeCount() != orig.EdgeCount() {
					t.Fatalf("withIDs=%v alias=%v: structure mismatch after round trip", withIDs, alias)
				}
				wantLen := orig.Len()
				if !withIDs {
					wantLen = 0
				}
				if got.Len() != wantLen {
					t.Fatalf("withIDs=%v: %d tuples, want %d", withIDs, got.Len(), wantLen)
				}
				gsr, osr := NewSearcher(got), NewSearcher(orig)
				for _, c := range orig.Codes()[:20] {
					if g, w := gsr.SearchCodes(c, 2), osr.SearchCodes(c, 2); len(g) != len(w) {
						t.Fatalf("withIDs=%v alias=%v: %d codes, want %d", withIDs, alias, len(g), len(w))
					}
					if withIDs {
						if g, w := gsr.Search(c, 2), osr.Search(c, 2); !equalIDs(g, w) {
							t.Fatalf("alias=%v: %d ids, want %d", alias, len(g), len(w))
						}
					}
				}
			}
		}
	}
}

// TestEncodeDecodeRoundTrip: an index written with EncodeArena and read back
// through DecodeArenaBytes answers every query as it did before, at code lengths
// of one and two words.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 5; trial++ {
		bitsLen := []int{16, 32, 64, 100}[trial%4]
		codes := clusteredCodes(rng, 100+rng.Intn(400), bitsLen, 6, 3)
		orig := Freeze(BuildDynamic(codes, nil, Options{}))
		var buf bytes.Buffer
		if err := orig.EncodeArena(&buf, true); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeArenaBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != orig.Len() || back.Length() != orig.Length() {
			t.Fatalf("len=%d/%d length=%d/%d", back.Len(), orig.Len(), back.Length(), orig.Length())
		}
		bsr, osr := NewSearcher(back), NewSearcher(orig)
		for q := 0; q < 20; q++ {
			query := codes[rng.Intn(len(codes))].Clone()
			query.FlipBit(rng.Intn(bitsLen))
			h := rng.Intn(6)
			if !equalIDs(bsr.Search(query, h), osr.Search(query, h)) {
				t.Fatal("decoded index answers differently")
			}
		}
	}
}

// TestEncodeLeafless: the leafless image (Option B's broadcast) keeps the
// hierarchy and the distinct codes but no ids.
func TestEncodeLeafless(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	codes := clusteredCodes(rng, 300, 32, 5, 3)
	orig := Freeze(BuildDynamic(codes, nil, Options{}))
	var buf bytes.Buffer
	if err := orig.EncodeArena(&buf, false); err != nil {
		t.Fatal(err)
	}
	leafless, err := DecodeArenaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if leafless.Len() != 0 || leafless.GroupCount() != orig.GroupCount() {
		t.Fatalf("leafless image holds %d tuples in %d groups, want 0 in %d", leafless.Len(), leafless.GroupCount(), orig.GroupCount())
	}
	lsr, osr := NewSearcher(leafless), NewSearcher(orig)
	q := codes[0]
	if got, want := lsr.SearchCodes(q, 3), osr.SearchCodes(q, 3); len(got) != len(want) {
		t.Fatalf("codes %d vs %d", len(got), len(want))
	}
	if ids := lsr.Search(q, 3); len(ids) != 0 {
		t.Fatalf("leafless index returned ids: %v", ids)
	}
}

// TestEncodedSizeOrdering: EncodedSizeArena is the byte count EncodeArena
// writes in both forms, and the leafless form is smaller by exactly the id
// slab.
func TestEncodedSizeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	idx := Freeze(BuildDynamic(clusteredCodes(rng, 2000, 32, 10, 3), nil, Options{}))
	for _, withIDs := range []bool{true, false} {
		var buf bytes.Buffer
		if err := idx.EncodeArena(&buf, withIDs); err != nil {
			t.Fatal(err)
		}
		if got := idx.EncodedSizeArena(withIDs); got != buf.Len() {
			t.Fatalf("withIDs=%v: EncodedSizeArena %d, EncodeArena wrote %d", withIDs, got, buf.Len())
		}
	}
	if full, leafless := idx.EncodedSizeArena(true), idx.EncodedSizeArena(false); full-leafless != 8*idx.Len() {
		t.Fatalf("leafless %d, full %d: the difference is not the %d ids", leafless, full, idx.Len())
	}
}

// TestDecodeErrors: what is not an image is refused, and so is an image of
// any other HADX version — v1, the pointer encoding this build no longer
// reads, among them — by its version byte alone, which the error names.
func TestDecodeErrors(t *testing.T) {
	valid, _ := validArenaEncoding(t, true)
	for _, data := range [][]byte{[]byte("nope"), nil, valid[:len(valid)/2]} {
		if _, err := DecodeArenaBytes(data); err == nil {
			t.Fatalf("DecodeArenaBytes accepted %d bytes that are no image", len(data))
		}
	}
	for _, v := range []byte{1, 2, 3, 5} {
		want := fmt.Sprintf("unsupported index version %d", v)
		for _, data := range [][]byte{append([]byte("HADX"), v), corrupt(valid, func(b []byte) { b[4] = v })} {
			if _, err := DecodeArenaBytes(data); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("DecodeArenaBytes on version %d: %v", v, err)
			}
		}
	}
}

// TestMapFrozenMatchesEager: the mmap'd view and the eager decode answer
// byte-identical Search/TopK results over a mixed query set — the tentpole
// equivalence property. Run under -race this also exercises concurrent
// searchers over one shared mapping.
func TestMapFrozenMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	codes := clusteredCodes(rng, 1200, 64, 12, 3)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i * 3
	}
	frozen := Freeze(BuildDynamic(codes, ids, Options{}))
	path := filepath.Join(t.TempDir(), "shard.hadx")
	fd, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.EncodeArena(fd, true); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}

	mapped, err := MapFrozen(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	eager, err := mapFrozenEager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.MappedBytes() > 0 && mapped.HeapBytes() >= eager.HeapBytes() {
		t.Fatalf("mapped HeapBytes %d not below eager %d", mapped.HeapBytes(), eager.HeapBytes())
	}

	queries := make([]bitvec.Code, 48)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = bitvec.Rand(rng, 64)
		} else {
			queries[i] = codes[rng.Intn(len(codes))]
		}
	}
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			msr, esr := NewSearcher(mapped), NewSearcher(eager)
			for h := 0; h <= 6; h++ {
				for _, q := range queries {
					got := append([]int(nil), msr.Search(q, h)...)
					if want := esr.Search(q, h); !equalIDs(got, want) {
						done <- &searchMismatchError{len(got), len(want)}
						return
					}
				}
			}
			for _, k := range []int{1, 7, 33} {
				for _, q := range queries {
					gi, gd := topK(msr, q, k)
					wi, wd := topK(esr, q, k)
					if !equalIDs(gi, wi) {
						done <- &searchMismatchError{len(gi), len(wi)}
						return
					}
					for i := range gd {
						if gd[i] != wd[i] {
							done <- &searchMismatchError{gd[i], wd[i]}
							return
						}
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaStreamedRoundTrip: a FrozenStreamWriter arena (scattered roots)
// survives the v4 round trip.
func TestArenaStreamedRoundTrip(t *testing.T) {
	f := buildStreamedArena(t, 900, 64, 128)
	// Roots ascend, so they are the contiguous prefix iff the last one is.
	if nr := len(f.rootIDs); nr == 0 || int(f.rootIDs[nr-1]) == nr-1 {
		t.Skip("streamed build happened to produce contiguous roots")
	}
	var buf bytes.Buffer
	if err := f.EncodeArena(&buf, true); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArenaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gsr, osr := NewSearcher(got), NewSearcher(f)
	for _, c := range f.Codes()[:30] {
		if g, w := gsr.Search(c, 3), osr.Search(c, 3); !equalIDs(g, w) {
			t.Fatalf("streamed round trip: %d ids, want %d", len(g), len(w))
		}
	}
}

// corrupt returns a copy of data with an in-place edit applied.
func corrupt(data []byte, edit func([]byte)) []byte {
	out := append([]byte(nil), data...)
	edit(out)
	return out
}

type corruptCase struct {
	name string
	data []byte
}

// corruptArenaCases edits a valid image every way the decoder must catch:
// header fields, section-table entries, the structural arrays, and
// truncations at several depths.
func corruptArenaCases(valid []byte) []corruptCase {
	putU64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	secOff := func(i int) int { return 88 + i*16 }

	cases := []corruptCase{
		{"empty", nil},
		{"header only half", valid[:100]},
		{"bad magic", corrupt(valid, func(b []byte) { b[0] = 'X' })},
		{"bad version", corrupt(valid, func(b []byte) { b[4] = 9 })},
		{"nonzero version pad", corrupt(valid, func(b []byte) { b[6] = 1 })},
		{"zero length", corrupt(valid, func(b []byte) { putU64(b, 8, 0) })},
		{"huge length", corrupt(valid, func(b []byte) { putU64(b, 8, 1<<21) })},
		{"count overflow", corrupt(valid, func(b []byte) { putU64(b, 32, 1<<40) })},
		{"roots exceed nodes", corrupt(valid, func(b []byte) { putU64(b, 48, 1<<20) })},
		{"bad section count", corrupt(valid, func(b []byte) { putU64(b, 80, 7) })},
		// Section table attacks: misaligned offset, overlap with the previous
		// section, inflated size, offset past EOF.
		{"misaligned section", corrupt(valid, func(b []byte) {
			putU64(b, secOff(secCodeSlab), binary.LittleEndian.Uint64(b[secOff(secCodeSlab):])+4)
		})},
		{"overlapping sections", corrupt(valid, func(b []byte) {
			putU64(b, secOff(secResSlab), binary.LittleEndian.Uint64(b[secOff(secCodeSlab):]))
		})},
		{"inflated section size", corrupt(valid, func(b []byte) {
			putU64(b, secOff(secMaskSlab)+8, 1<<30)
		})},
		{"section past EOF", corrupt(valid, func(b []byte) {
			putU64(b, secOff(secMaskSlab), uint64(len(valid)+1024))
		})},
		// Structural attacks inside otherwise-consistent sections. The first
		// root must be nonnegative and ascending; a CSR prefix must start at 0.
		{"negative root", corrupt(valid, func(b []byte) {
			off := binary.LittleEndian.Uint64(b[secOff(secRoots):])
			binary.LittleEndian.PutUint32(b[off:], 0xffffffff)
		})},
		{"childStart not zero-based", corrupt(valid, func(b []byte) {
			off := binary.LittleEndian.Uint64(b[secOff(secChildStart):])
			binary.LittleEndian.PutUint32(b[off:], 1)
		})},
		{"leaf ref out of range", corrupt(valid, func(b []byte) {
			off := binary.LittleEndian.Uint64(b[secOff(secLeafList):])
			binary.LittleEndian.PutUint32(b[off:], 1<<30)
		})},
		{"child out of level order", corrupt(valid, func(b []byte) {
			off := binary.LittleEndian.Uint64(b[secOff(secChildList):])
			binary.LittleEndian.PutUint32(b[off:], 0)
		})},
		{"trailing garbage", append(append([]byte(nil), valid...), make([]byte, 64)...)},
	}
	for _, cut := range []int{8, arenaHeaderSize - 1, arenaHeaderSize + 3, len(valid) / 2, len(valid) - 1} {
		cases = append(cases, corruptCase{"truncated", valid[:cut]})
	}
	return cases
}

// TestDecodeArenaCorruptInput: truncated, misaligned, overlapping, mis-sized
// and structurally invalid images must all be rejected with an error — never
// a panic — by both the copying and aliasing parse.
func TestDecodeArenaCorruptInput(t *testing.T) {
	valid, _ := validArenaEncoding(t, true)
	putU64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	secOff := func(i int) int { return 88 + i*16 }
	for _, tc := range corruptArenaCases(valid) {
		for _, alias := range []bool{false, true} {
			setArenaAlias(t, alias)
			if _, err := DecodeArenaBytes(tc.data); err == nil {
				t.Errorf("%s (%d bytes, alias=%v): decode accepted corrupt input", tc.name, len(tc.data), alias)
			}
		}
	}
	if _, err := DecodeArenaBytes(valid); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	// MapFrozen on a corrupt file must reject (and release the mapping).
	badFile := corrupt(valid, func(b []byte) { putU64(b, secOff(secMaskSlab)+8, 1<<30) })
	path := filepath.Join(t.TempDir(), "bad.hadx")
	if err := os.WriteFile(path, badFile, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapFrozen(path); err == nil {
		t.Fatal("MapFrozen accepted a corrupt arena")
	}
}

// TestDecodeCorruptInput: the same corruptions of a forest image — scattered
// roots, shifted references, a code in two groups — are refused through the
// aliasing parse every loader runs.
func TestDecodeCorruptInput(t *testing.T) {
	valid := chunkedArena(t)
	for _, tc := range corruptArenaCases(valid) {
		if _, err := DecodeArenaBytes(tc.data); err == nil {
			t.Errorf("%s (%d bytes): decode accepted corrupt input", tc.name, len(tc.data))
		}
	}
	if _, err := DecodeArenaBytes(valid); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
}

// FuzzDecodeIndex truncates a valid image and flips bits of one byte, where
// FuzzSectionTable splats eight: a few bits wrong in one structural entry is
// the damage a bad disk does. The copying parse reading it must either error
// or yield an index whose walks terminate.
func FuzzDecodeIndex(f *testing.F) {
	valid, _ := validArenaEncoding(f, true)
	setArenaAlias(f, false)
	f.Add(uint16(len(valid)), uint16(0), byte(0))
	f.Add(uint16(len(valid)/2), uint16(5), byte(0xff))
	f.Add(uint16(10), uint16(4), byte(1))
	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipMask byte) {
		data := append([]byte(nil), valid...)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 {
			data[int(flipAt)%len(data)] ^= flipMask
		}
		got, err := DecodeArenaBytes(data)
		if err != nil {
			return
		}
		sr := NewSearcher(got)
		for _, c := range got.Codes() {
			sr.Search(c, 0)
		}
	})
}

// FuzzSectionTable mutates a valid v4 image — truncation plus an 8-byte
// splat at an arbitrary offset, which reaches every header field, section
// table entry, and structural array. Decode must either error or yield an
// index whose walks terminate without panicking, on both parse paths.
func FuzzSectionTable(f *testing.F) {
	valid, _ := validArenaEncoding(f, true)
	// The second base image is a streamed arena of 7-tuple chunks: scattered
	// roots, shifted references, a code in two groups.
	chunked := chunkedArena(f)
	f.Add(false, uint16(len(valid)), uint16(0), uint64(0))
	f.Add(false, uint16(len(valid)), uint16(88), uint64(1)<<33)
	f.Add(false, uint16(len(valid)), uint16(96), uint64(0xffffffffffffffff))
	f.Add(false, uint16(200), uint16(8), uint64(3))
	f.Add(true, uint16(len(chunked)), uint16(0), uint64(0))
	f.Add(true, uint16(len(chunked)), uint16(88+16*secRoots), uint64(5)<<32)
	f.Fuzz(func(t *testing.T, forest bool, cut uint16, at uint16, splat uint64) {
		base := valid
		if forest {
			base = chunked
		}
		data := append([]byte(nil), base...)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if len(data) >= 8 {
			off := int(at) % (len(data) - 7)
			binary.LittleEndian.PutUint64(data[off:], splat)
		}
		for _, alias := range []bool{false, true} {
			setArenaAlias(t, alias)
			got, err := DecodeArenaBytes(data)
			if err != nil {
				continue
			}
			sr := NewSearcher(got)
			for _, c := range got.Codes() {
				sr.Search(c, 1)
			}
			topK(sr, bitvec.New(got.Length()), 3)
		}
	})
}

func BenchmarkEncodeArena(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 128, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sz := idx.EncodedSizeArena(true)
	buf := bytes.NewBuffer(make([]byte, 0, sz))
	b.ReportAllocs()
	b.SetBytes(int64(sz))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := idx.EncodeArena(buf, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeArenaEager(b *testing.B) {
	data, _ := benchArenaImage(b)
	setArenaAlias(b, false)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArenaBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeArenaAlias(b *testing.B) {
	data, _ := benchArenaImage(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArenaBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchArenaImage(b *testing.B) ([]byte, *FrozenIndex) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 128, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	var buf bytes.Buffer
	if err := idx.EncodeArena(&buf, true); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), idx
}

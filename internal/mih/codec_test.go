package mih

import (
	"bytes"
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// validMIHEncoding builds a small index and returns its encoding, the
// mutation base for the corruption table and fuzz target.
func validMIHEncoding(tb testing.TB, withIDs bool) ([]byte, *Index) {
	tb.Helper()
	rng := rand.New(rand.NewSource(201))
	codes := clusteredCodes(rng, 120, 32, 5, 2)
	m, err := Build(codes, nil, Options{Blocks: 4})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf, withIDs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), m
}

func TestCodecRoundTrip(t *testing.T) {
	for _, withIDs := range []bool{true, false} {
		data, orig := validMIHEncoding(t, withIDs)
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("withIDs=%v: %v", withIDs, err)
		}
		if got.Length() != orig.Length() || got.GroupCount() != orig.GroupCount() ||
			got.Blocks() != orig.Blocks() || got.Matched() != orig.Matched() ||
			got.Tables() != orig.Tables() {
			t.Fatalf("withIDs=%v: structure mismatch after round trip", withIDs)
		}
		wantLen := orig.Len()
		if !withIDs {
			wantLen = 0
		}
		if got.Len() != wantLen {
			t.Fatalf("withIDs=%v: %d tuples after round trip, want %d", withIDs, got.Len(), wantLen)
		}
		if withIDs {
			// Re-encoding must be byte-identical: the layout is canonical.
			var again bytes.Buffer
			if err := got.Encode(&again, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatal("re-encoding a decoded index changed the bytes")
			}
			sr := core.NewSearcher(core.AsIndex(got))
			osr := core.NewSearcher(core.AsIndex(orig))
			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 20; i++ {
				q := bitvec.Rand(rng, 32)
				if got, want := sortedCopy(sr.Search(q, 4)), sortedCopy(osr.Search(q, 4)); !equalIDs(got, want) {
					t.Fatalf("decoded index answers %d ids, want %d", len(got), len(want))
				}
			}
		}
	}
}

// TestDecodeOwnsSlabs: an engine that aliases a frozen index's arena encodes
// like any other, and what decodes from it owns its group slabs — nothing
// ties it to the arena the encoder read.
func TestDecodeOwnsSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	codes := clusteredCodes(rng, 150, 64, 5, 2)
	frozen := core.Freeze(core.BuildDynamic(codes, nil, core.Options{}))
	aliasing, err := FromGroups(frozen.Groups(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := aliasing.Encode(&buf, true); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if aliasing.HeapBytes() >= aliasing.SizeBytes() || got.HeapBytes() != got.SizeBytes() || got.SizeBytes() != aliasing.SizeBytes() {
		t.Fatalf("heap/size: aliasing %d/%d, decoded %d/%d",
			aliasing.HeapBytes(), aliasing.SizeBytes(), got.HeapBytes(), got.SizeBytes())
	}
	if &got.grp.Codes[0] == &aliasing.grp.Codes[0] {
		t.Fatal("decoded index shares the encoder's code slab")
	}
	for _, q := range codes[:20] {
		if want := oracle(codes, q, 6); !equalIDs(got.Search(q, 6), want) {
			t.Fatalf("decoded index answers differ from the oracle")
		}
	}
}

// TestDecodeIndexRoundTrip: the registered v3 decoder lets core.DecodeIndex
// hand back the MIH engine behind the generic Index surface.
func TestDecodeIndexRoundTrip(t *testing.T) {
	data, orig := validMIHEncoding(t, true)
	idx, err := core.DecodeIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ei, ok := idx.(*core.EngineIndex)
	if !ok {
		t.Fatalf("DecodeIndex returned %T for a v3 encoding", idx)
	}
	m, ok := ei.Engine().(*Index)
	if !ok {
		t.Fatalf("EngineIndex wraps %T, want *mih.Index", ei.Engine())
	}
	if m.Len() != orig.Len() || idx.Length() != orig.Length() {
		t.Fatal("structure mismatch through core.DecodeIndex")
	}
	// Dedicated decoders of the other versions must reject v3 bytes.
	if _, err := core.DecodeFrozen(bytes.NewReader(data)); err == nil {
		t.Fatal("DecodeFrozen accepted a v3 MIH encoding")
	}
	if _, err := core.DecodeDynamic(bytes.NewReader(data)); err == nil {
		t.Fatal("DecodeDynamic accepted a v3 MIH encoding")
	}
}

// TestDecodeCorruptInput drives decodeBody through every guarded error path
// with hand-built inputs, plus truncations of a real encoding.
func TestDecodeCorruptInput(t *testing.T) {
	valid, _ := validMIHEncoding(t, true)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("HA")},
		{"bad magic", []byte("XDAH\x03\x20\x00")},
		{"missing version", []byte("HADX")},
		{"v1 under mih decoder", []byte("HADX\x01\x20\x00")},
		{"missing length", []byte("HADX\x03")},
		{"zero length", []byte("HADX\x03\x00\x00")},
		// 1<<21 bits, over the plausibility cap.
		{"huge length", []byte("HADX\x03\x80\x80\x80\x01\x00")},
		{"missing params", []byte("HADX\x03\x20\x00\x04")},
		// 32-bit codes, blocks=40 > length.
		{"blocks exceed length", []byte("HADX\x03\x20\x00\x28\x01\x00\x00\x00")},
		// matched=3 > blocks=2.
		{"matched exceeds blocks", []byte("HADX\x03\x20\x00\x02\x03\x00\x00\x00")},
		// blocks=0.
		{"zero blocks", []byte("HADX\x03\x20\x00\x00\x00\x00\x00\x00")},
		// 128-bit codes in a single block: 128-bit keys.
		{"overwide keys", []byte("HADX\x03\x80\x01\x00\x01\x01\x00\x00\x00")},
		// blocks=4 matched=1 over 32 bits: 4 tables, 1 group, but 0 declared
		// candidate refs (must be tables*groups = 4).
		{"cand count mismatch", []byte("HADX\x03\x20\x00\x04\x01\x01\x04\x00")},
		// Same header, 4 cands declared but 5 keys > 4 cands.
		{"keys exceed cands", []byte("HADX\x03\x20\x00\x04\x01\x01\x05\x04")},
		// Hostile group count (2^32) with no bytes behind it: nCands check
		// fires before any allocation.
		{"hostile group count", []byte("HADX\x03\x20\x00\x04\x01\x90\x80\x80\x80\x10\x00\x00")},
		// 1 group, 4 tables, 4 keys, 4 cands — code slab truncated.
		{"truncated code slab", []byte("HADX\x03\x20\x00\x04\x01\x01\x04\x04\xaa\xbb")},
	}
	for _, cut := range []int{5, 8, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		cases = append(cases, struct {
			name string
			data []byte
		}{"truncated", valid[:cut]})
	}
	for _, tc := range cases {
		if _, err := Decode(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s (%d bytes): decode accepted corrupt input", tc.name, len(tc.data))
		}
	}
	if _, err := Decode(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
}

// FuzzDecodeMIH mutates a known-valid v3 encoding — truncating and flipping
// one byte, the FuzzDecodeIndex recipe — so the fuzzer reaches the deep
// decoder states (key runs, candidate degrees) that random prefixes rarely
// survive to. Decoding must either error or yield a usable index.
func FuzzDecodeMIH(f *testing.F) {
	valid, _ := validMIHEncoding(f, true)
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
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever survived must behave like an index: searching every
		// decoded code must terminate and not panic.
		sr := core.NewSearcher(core.AsIndex(got))
		got.Tuples(func(_ int, c bitvec.Code) {
			sr.Search(c, 2)
		})
		sr.TopK(bitvec.New(got.Length()), 3)
	})
}

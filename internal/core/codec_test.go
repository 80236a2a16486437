package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 5; trial++ {
		bitsLen := []int{16, 32, 64, 100}[trial%4]
		codes := clusteredCodes(rng, 100+rng.Intn(400), bitsLen, 6, 3)
		orig := BuildDynamic(codes, nil, Options{})
		var buf bytes.Buffer
		if err := orig.Encode(&buf, true); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeDynamic(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != orig.Len() || back.Length() != orig.Length() {
			t.Fatalf("len=%d/%d length=%d/%d", back.Len(), orig.Len(), back.Length(), orig.Length())
		}
		for q := 0; q < 20; q++ {
			query := codes[rng.Intn(len(codes))].Clone()
			query.FlipBit(rng.Intn(bitsLen))
			h := rng.Intn(6)
			if !equalIDs(back.Search(query, h), orig.Search(query, h)) {
				t.Fatal("decoded index answers differently")
			}
		}
	}
}

func TestEncodeLeafless(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	codes := clusteredCodes(rng, 300, 32, 5, 3)
	orig := BuildDynamic(codes, nil, Options{})
	var buf bytes.Buffer
	if err := orig.Encode(&buf, false); err != nil {
		t.Fatal(err)
	}
	leafless, err := DecodeDynamic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := codes[0]
	// Leafless index yields the same qualifying codes but no ids.
	wantCodes := orig.SearchCodes(q, 3)
	gotCodes := leafless.SearchCodes(q, 3)
	if len(gotCodes) != len(wantCodes) {
		t.Fatalf("codes %d vs %d", len(gotCodes), len(wantCodes))
	}
	if ids := leafless.Search(q, 3); len(ids) != 0 {
		t.Fatalf("leafless index returned ids: %v", ids)
	}
}

func TestEncodedSizeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	codes := clusteredCodes(rng, 2000, 32, 10, 3)
	idx := BuildDynamic(codes, nil, Options{})
	full, err := idx.EncodedSize(true)
	if err != nil {
		t.Fatal(err)
	}
	leafless, err := idx.EncodedSize(false)
	if err != nil {
		t.Fatal(err)
	}
	if leafless >= full {
		t.Fatalf("leafless (%d) must be smaller than full (%d)", leafless, full)
	}
	// The byte-accounting estimator should be the same order of magnitude
	// as the true wire size (it includes in-memory overheads, so larger).
	est := idx.BroadcastSizeBytes(true)
	if est < full/4 || est > full*16 {
		t.Fatalf("estimator %d vs encoded %d out of range", est, full)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeDynamic(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := DecodeDynamic(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
	// Truncated stream.
	rng := rand.New(rand.NewSource(154))
	codes := clusteredCodes(rng, 50, 32, 3, 2)
	idx := BuildDynamic(codes, nil, Options{})
	var buf bytes.Buffer
	if err := idx.Encode(&buf, true); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDynamic(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("expected truncation error")
	}
	// DecodeIndex reads v1 and v4 only, and says which version it refused
	// from the version byte alone — nothing follows it here.
	for _, v := range []byte{2, 3} {
		want := fmt.Sprintf("unsupported index version %d", v)
		if _, err := DecodeIndex(bytes.NewReader(append([]byte("HADX"), v))); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("DecodeIndex on version %d: %v", v, err)
		}
	}
}

func TestDecodedIndexIsUpdatable(t *testing.T) {
	rng := rand.New(rand.NewSource(155))
	codes := clusteredCodes(rng, 200, 32, 4, 3)
	idx := BuildDynamic(codes, nil, Options{})
	var buf bytes.Buffer
	if err := idx.Encode(&buf, true); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDynamic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	extra := clusteredCodes(rng, 20, 32, 2, 2)
	for i, c := range extra {
		back.Insert(1000+i, c)
	}
	back.Flush()
	for i, c := range extra {
		got := back.Search(c, 0)
		found := false
		for _, id := range got {
			if id == 1000+i {
				found = true
			}
		}
		if !found {
			t.Fatalf("inserted tuple %d missing after decode+insert", 1000+i)
		}
	}
}

package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestMutateMessageRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{16, 64, 100} {
		codes := randCodes(rng, 5, bits)
		ins := InsertReq{IDs: []int{0, 7, 900000, 3, 12}, Codes: codes}
		gotIns, err := ParseInsertReq(ins.Append(nil), bits)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotIns.IDs) != 5 || gotIns.IDs[2] != 900000 {
			t.Fatalf("insert req: %+v", gotIns)
		}
		for i := range codes {
			if !gotIns.Codes[i].Equal(codes[i]) {
				t.Fatalf("insert code %d mismatch", i)
			}
		}
	}

	ir := InsertResp{Replaced: 2, MemtableSize: 41, Epoch: 9}
	if got, err := ParseInsertResp(ir.Append(nil)); err != nil || got != ir {
		t.Fatalf("insert resp: %+v err %v", got, err)
	}

	dr := DeleteReq{IDs: []int{3, 1, 4, 1, 5}}
	gotDr, err := ParseDeleteReq(dr.Append(nil))
	if err != nil || len(gotDr.IDs) != 5 || gotDr.IDs[4] != 5 {
		t.Fatalf("delete req: %+v err %v", gotDr, err)
	}

	dresp := DeleteResp{Deleted: 3, Epoch: 12}
	if got, err := ParseDeleteResp(dresp.Append(nil)); err != nil || got != dresp {
		t.Fatalf("delete resp: %+v err %v", got, err)
	}

	for _, compact := range []bool{false, true} {
		sr := SealReq{Compact: compact}
		if got, err := ParseSealReq(sr.Append(nil)); err != nil || got != sr {
			t.Fatalf("seal req: %+v err %v", got, err)
		}
	}

	sok := SealOK{Segments: 2, MemtableSize: 0, Tombstones: 7, Epoch: 33}
	if got, err := ParseSealOK(sok.Append(nil)); err != nil || got != sok {
		t.Fatalf("seal ok: %+v err %v", got, err)
	}
}

func TestMutateParseErrorPaths(t *testing.T) {
	cases := []struct {
		name  string
		parse func([]byte) error
		data  []byte
	}{
		{"insert-req hostile count", func(b []byte) error { _, err := ParseInsertReq(b, 64); return err },
			[]byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"insert-req short code", func(b []byte) error { _, err := ParseInsertReq(b, 64); return err },
			[]byte{1, 7, 0xAA, 0xBB}},
		{"insert-resp truncated", func(b []byte) error { _, err := ParseInsertResp(b); return err },
			[]byte{5, 2}},
		{"insert-resp trailing", func(b []byte) error { _, err := ParseInsertResp(b); return err },
			[]byte{5, 2, 1, 9, 77}},
		{"delete-req hostile count", func(b []byte) error { _, err := ParseDeleteReq(b); return err },
			[]byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"delete-resp empty", func(b []byte) error { _, err := ParseDeleteResp(b); return err }, nil},
		{"seal-req empty", func(b []byte) error { _, err := ParseSealReq(b); return err }, nil},
		{"seal-req trailing", func(b []byte) error { _, err := ParseSealReq(b); return err }, []byte{1, 1}},
		{"seal-ok truncated", func(b []byte) error { _, err := ParseSealOK(b); return err }, []byte{2, 0}},
	}
	for _, tc := range cases {
		if err := tc.parse(tc.data); err == nil {
			t.Errorf("%s: corrupt payload accepted", tc.name)
		}
	}
}

// FuzzParseMutationFrames hammers the mutation decoders with arbitrary
// bytes: they must never panic or over-allocate, and anything they accept
// must re-encode to a payload they accept again (decode/encode round-trip
// stability). make fuzz-wire runs this for a short smoke burst.
func FuzzParseMutationFrames(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	ins := InsertReq{IDs: []int{1, 2}, Codes: randCodes(rng, 2, 32)}
	f.Add(uint8(0), ins.Append(nil))
	f.Add(uint8(1), InsertResp{Replaced: 1, MemtableSize: 7, Epoch: 3}.Append(nil))
	f.Add(uint8(2), DeleteReq{IDs: []int{5, 6, 7}}.Append(nil))
	f.Add(uint8(3), DeleteResp{Deleted: 1, Epoch: 4}.Append(nil))
	f.Add(uint8(4), SealReq{Compact: true}.Append(nil))
	f.Add(uint8(5), SealOK{Segments: 1, Tombstones: 2, Epoch: 5}.Append(nil))
	// Framing itself: a well-formed frame, and a header that claims MaxFrame
	// bytes and delivers none (see TestReadFrameAllocatesAsBytesArrive).
	var framed bytes.Buffer
	WriteFrame(&framed, MsgInsert, ins.Append(nil))
	f.Add(uint8(6), framed.Bytes())
	f.Add(uint8(6), hostileHeader)
	// The reply the router decodes into one slab: a well-formed one, and counts
	// that claim more ids than the payload has bytes for.
	f.Add(uint8(7), SearchResp{IDs: [][]int{{1, 5, 900000}, nil, {0}}}.Append(nil))
	f.Add(uint8(7), []byte{1, 3, 5, 1})
	f.Add(uint8(7), []byte{2, 1, 5, 0xff, 0xff, 0x03, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % 8 {
		case 7:
			if m, err := ParseSearchResp(data); err == nil {
				total := 0
				for _, ids := range m.IDs {
					total += len(ids)
				}
				if total > len(data) {
					t.Fatalf("%d ids out of %d bytes", total, len(data))
				}
				again, err := ParseSearchResp(m.Append(nil))
				if err != nil || !reflect.DeepEqual(again, m) {
					t.Fatalf("SearchResp not round-trip stable (%v)", err)
				}
			}
		case 0:
			if m, err := ParseInsertReq(data, 32); err == nil {
				if _, err := ParseInsertReq(m.Append(nil), 32); err != nil {
					t.Fatalf("re-encoded InsertReq rejected: %v", err)
				}
			}
		case 1:
			if m, err := ParseInsertResp(data); err == nil {
				if got, err := ParseInsertResp(m.Append(nil)); err != nil || got != m {
					t.Fatalf("InsertResp not round-trip stable: %+v vs %+v (%v)", got, m, err)
				}
			}
		case 2:
			if m, err := ParseDeleteReq(data); err == nil {
				if _, err := ParseDeleteReq(m.Append(nil)); err != nil {
					t.Fatalf("re-encoded DeleteReq rejected: %v", err)
				}
			}
		case 3:
			if m, err := ParseDeleteResp(data); err == nil {
				if got, err := ParseDeleteResp(m.Append(nil)); err != nil || got != m {
					t.Fatalf("DeleteResp not round-trip stable: %+v vs %+v (%v)", got, m, err)
				}
			}
		case 4:
			if m, err := ParseSealReq(data); err == nil {
				if got, err := ParseSealReq(m.Append(nil)); err != nil || got != m {
					t.Fatalf("SealReq not round-trip stable: %+v vs %+v (%v)", got, m, err)
				}
			}
		case 6:
			// Whatever the length prefix claims, a frame is accepted only when
			// that many bytes follow, and re-frames to the bytes it came from.
			if typ, payload, err := ReadFrame(bytes.NewReader(data)); err == nil {
				var again bytes.Buffer
				if err := WriteFrame(&again, typ, payload); err != nil || !bytes.Equal(again.Bytes(), data[:again.Len()]) {
					t.Fatalf("frame not round-trip stable (%v)", err)
				}
			}
		case 5:
			if m, err := ParseSealOK(data); err == nil {
				if got, err := ParseSealOK(m.Append(nil)); err != nil || got != m {
					t.Fatalf("SealOK not round-trip stable: %+v vs %+v (%v)", got, m, err)
				}
			}
		}
	})
}

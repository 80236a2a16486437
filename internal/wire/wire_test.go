package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
)

func randCodes(rng *rand.Rand, n, bits int) []bitvec.Code {
	out := make([]bitvec.Code, n)
	for i := range out {
		out[i] = bitvec.Rand(rng, bits)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 250}
	if err := WriteFrame(&buf, MsgSearch, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgStats, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgSearch || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: %v %v %v", typ, got, err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != MsgStats || len(got) != 0 {
		t.Fatalf("frame 2: %v %v %v", typ, got, err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized length prefix.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Zero-length frame (no type byte).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero frame accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{16, 64, 100} {
		pivots := randCodes(rng, 3, bits)
		hello := HelloOK{Version: Version, SnapshotMeta: SnapshotMeta{Length: bits, Part: 2, Parts: 4, Pivots: pivots}, Tuples: 999}
		got, err := ParseHelloOK(hello.Append(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got.Part != 2 || got.Parts != 4 || got.Tuples != 999 || got.Length != bits || len(got.Pivots) != 3 {
			t.Fatalf("hello round trip: %+v", got)
		}
		for i := range pivots {
			if !got.Pivots[i].Equal(pivots[i]) {
				t.Fatalf("pivot %d mismatch", i)
			}
		}

		req := SearchReq{H: 5, Queries: randCodes(rng, 7, bits)}
		gotReq, err := ParseSearchReq(req.Append(nil), bits)
		if err != nil {
			t.Fatal(err)
		}
		if gotReq.H != 5 || len(gotReq.Queries) != 7 {
			t.Fatalf("search req: %+v", gotReq)
		}
		for i := range req.Queries {
			if !gotReq.Queries[i].Equal(req.Queries[i]) {
				t.Fatalf("query %d mismatch", i)
			}
		}
	}

	resp := SearchResp{IDs: [][]int{{1, 5, 900000}, nil, {0}}}
	gotResp, err := ParseSearchResp(resp.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotResp.IDs) != 3 || len(gotResp.IDs[0]) != 3 || gotResp.IDs[0][2] != 900000 || gotResp.IDs[2][0] != 0 {
		t.Fatalf("search resp: %+v", gotResp)
	}

	tk := TopKResp{IDs: [][]int{{9, 2}}, Dists: [][]int{{0, 3}}}
	gotTK, err := ParseTopKResp(tk.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gotTK.IDs[0][1] != 2 || gotTK.Dists[0][1] != 3 {
		t.Fatalf("topk resp: %+v", gotTK)
	}

	st := StatsResp{Requests: 7, Queries: 100, IDsReturned: 12, FaultsInjected: 2, DistanceComputations: 555}
	gotSt, err := ParseStatsResp(st.Append(nil))
	if err != nil || gotSt != st {
		t.Fatalf("stats resp: %+v err %v", gotSt, err)
	}

	em := ErrorMsg{Msg: "injected failure"}
	gotEm, err := ParseErrorMsg(em.Append(nil))
	if err != nil || gotEm.Msg != em.Msg {
		t.Fatalf("error msg: %+v err %v", gotEm, err)
	}
}

func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		name  string
		parse func([]byte) error
		data  []byte
	}{
		{"hello empty", func(b []byte) error { _, err := ParseHello(b); return err }, nil},
		{"hello trailing", func(b []byte) error { _, err := ParseHello(b); return err }, []byte{1, 99}},
		{"hello-ok truncated", func(b []byte) error { _, err := ParseHelloOK(b); return err }, []byte{1, 32}},
		{"hello-ok zero length", func(b []byte) error { _, err := ParseHelloOK(b); return err }, []byte{1, 0, 0, 2, 0, 0}},
		{"hello-ok hostile pivot count", func(b []byte) error { _, err := ParseHelloOK(b); return err },
			[]byte{1, 16, 0, 2, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		// A router indexes its shard table by Part and routes by the pivots.
		{"hello-ok part past parts", func(b []byte) error { _, err := ParseHelloOK(b); return err },
			HelloOK{Version: Version, SnapshotMeta: SnapshotMeta{Length: 16, Part: 1, Parts: 1}}.Append(nil)},
		{"hello-ok no partitions", func(b []byte) error { _, err := ParseHelloOK(b); return err },
			HelloOK{Version: Version, SnapshotMeta: SnapshotMeta{Length: 16, Part: 0, Parts: 0}}.Append(nil)},
		{"hello-ok too many pivots", func(b []byte) error { _, err := ParseHelloOK(b); return err },
			HelloOK{Version: Version, SnapshotMeta: SnapshotMeta{Length: 16, Part: 0, Parts: 2, Pivots: randCodes(rand.New(rand.NewSource(4)), 2, 16)}}.Append(nil)},
		{"search-resp hostile count", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"search-resp ids past the payload", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{1, 3, 5, 1}},
		{"search-resp second query's ids past the payload", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{2, 1, 5, 2, 1}},
		{"search-resp truncated delta", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{1, 2, 5, 0x80}},
		{"search-resp delta out of range", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"search-resp trailing ids", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{1, 1, 5, 6}},
		{"topk-resp truncated pair", func(b []byte) error { _, err := ParseTopKResp(b); return err },
			[]byte{1, 2, 5}},
		{"stats truncated", func(b []byte) error { _, err := ParseStatsResp(b); return err }, []byte{1, 2}},
		{"error-msg short", func(b []byte) error { _, err := ParseErrorMsg(b); return err }, []byte{9, 'h', 'i'}},
	}
	for _, tc := range cases {
		if err := tc.parse(tc.data); err == nil {
			t.Errorf("%s: corrupt payload accepted", tc.name)
		}
	}
	if _, err := ParseSearchReq([]byte{3, 2, 0xAA}, 64); err == nil {
		t.Error("search req with short code accepted")
	}
}

// TestParseSearchRespExactSize: the ids of one response share one allocation
// of exactly their number — no growth by doubling — each query's slice capped
// at its own length, deltas of one, two and more bytes decoded alike; and a
// count is a claim, not data: a frame claiming a million ids over a megabyte
// that holds none fails without allocating what it claims.
func TestParseSearchRespExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	want := make([][]int, 16)
	total := 0
	for i := range want {
		if i%5 == 4 {
			continue // a query without matches stays nil
		}
		id := 0
		for j, n := 0, 100+rng.Intn(800); j < n; j++ {
			id += []int{rng.Intn(128), rng.Intn(1 << 14), rng.Intn(1 << 24)}[rng.Intn(3)]
			want[i] = append(want[i], id)
		}
		total += len(want[i])
	}
	payload := SearchResp{IDs: want}.Append(nil)
	var got SearchResp
	var err error
	spent := allocatedBy(func() { got, err = ParseSearchResp(payload) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != len(want) {
		t.Fatalf("%d queries back, want %d", len(got.IDs), len(want))
	}
	for i := range want {
		if !slices.Equal(got.IDs[i], want[i]) || (want[i] == nil) != (got.IDs[i] == nil) {
			t.Fatalf("query %d: ids differ from what was encoded", i)
		}
		if cap(got.IDs[i]) != len(got.IDs[i]) {
			t.Fatalf("query %d: cap %d over len %d lets an append overwrite the next query's ids", i, cap(got.IDs[i]), len(got.IDs[i]))
		}
	}
	// A quarter over, for the allocator's size classes; growth by doubling
	// per query spends two to three times the ids.
	if limit := uint64(10*total + 24*len(want) + 256); spent > limit {
		t.Fatalf("decoding %d ids allocated %d bytes, want at most %d: one exact slab and the headers", total, spent, limit)
	}

	hostile := binary.AppendUvarint([]byte{1}, 1<<20)
	hostile = append(hostile, bytes.Repeat([]byte{0x80}, 1<<20)...)
	if spent := allocatedBy(func() { _, err = ParseSearchResp(hostile) }); err == nil || spent > 4096 {
		t.Fatalf("a frame claiming 2^20 ids and holding none: err %v after allocating %d bytes", err, spent)
	}
}

func buildSnapshot(t testing.TB, rng *rand.Rand, bits, parts int) (SnapshotMeta, *core.FrozenIndex, []byte) {
	codes := randCodes(rng, 300, bits)
	pivots := histo.Pivots(codes[:100], parts)
	meta := SnapshotMeta{Part: 1, Parts: parts, Length: bits, Pivots: pivots}
	own := make([]bitvec.Code, 0, len(codes))
	ids := make([]int, 0, len(codes))
	for i, c := range codes {
		if histo.PartitionID(pivots, c) == meta.Part {
			own = append(own, c)
			ids = append(ids, i)
		}
	}
	idx := buildFrozen(own, ids)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, meta, idx); err != nil {
		t.Fatal(err)
	}
	return meta, idx, buf.Bytes()
}

// buildFrozen is core.BuildFrozen over codes and their ids, which it leaves
// as they are.
func buildFrozen(codes []bitvec.Code, ids []int) *core.FrozenIndex {
	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	return core.BuildFrozen(codes[0].Len(), rows, slices.Clone(ids), core.Options{})
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	meta, idx, data := buildSnapshot(t, rng, 32, 4)
	gotMeta, gotIdx, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Part != meta.Part || gotMeta.Parts != meta.Parts || gotMeta.Length != meta.Length {
		t.Fatalf("meta: %+v vs %+v", gotMeta, meta)
	}
	for i := range meta.Pivots {
		if !gotMeta.Pivots[i].Equal(meta.Pivots[i]) {
			t.Fatalf("pivot %d mismatch", i)
		}
	}
	if gotIdx.Len() != idx.Len() {
		t.Fatalf("tuples %d vs %d", gotIdx.Len(), idx.Len())
	}
	q := idx.Codes()[0]
	if got, want := core.NewSearcher(gotIdx).Search(q, 2), core.NewSearcher(idx).Search(q, 2); len(got) != len(want) {
		t.Fatalf("decoded snapshot answers differently: %v vs %v", got, want)
	}
}

func TestSnapshotErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, _, data := buildSnapshot(t, rng, 32, 3)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE this is not a snapshot")},
		{"truncated header", data[:6]},
		{"truncated pivots", data[:10]},
		{"truncated index", data[:len(data)-20]},
		{"index magic corrupted", append(append([]byte{}, data[:len(data)-idxLen(t, data)]...), 'X')},
	}
	for _, tc := range cases {
		if _, _, err := decodeSnapshot(tc.data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
	}
	// Inconsistent meta must fail validation on write.
	idx := buildFrozen(randCodes(rng, 10, 16), nil)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Part: 5, Parts: 2, Length: 16, Pivots: randCodes(rng, 1, 16)}, idx); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := WriteSnapshot(&buf, SnapshotMeta{Part: 0, Parts: 1, Length: 32}, idx); err == nil {
		t.Error("length mismatch with index accepted")
	}
}

// idxLen finds how many trailing bytes belong to the embedded index by
// locating the HADX magic.
func idxLen(t *testing.T, data []byte) int {
	i := bytes.Index(data, []byte("HADX"))
	if i < 0 {
		t.Fatal("no embedded index magic")
	}
	return len(data) - i
}

// TestSearchReqEngineHint: the trailing engine field round-trips, the auto
// default stays off the wire, and unknown hints are rejected.
func TestSearchReqEngineHint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := randCodes(rng, 3, 64)
	base := SearchReq{H: 4, Queries: queries}.Append(nil)
	for _, engine := range []int{EngineAuto, EngineHA, EngineMIH, EngineScan} {
		payload := SearchReq{H: 4, Engine: engine, Queries: queries}.Append(nil)
		if engine == EngineAuto && !bytes.Equal(payload, base) {
			t.Fatal("auto engine changed the encoding")
		}
		got, err := ParseSearchReq(payload, 64)
		if err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
		if got.Engine != engine || got.H != 4 || len(got.Queries) != 3 {
			t.Fatalf("engine %d round trip: %+v", engine, got)
		}
	}
	// An out-of-range hint and garbage after the hint must both fail.
	if _, err := ParseSearchReq(append(append([]byte(nil), base...), 9), 64); err == nil {
		t.Error("unknown engine hint accepted")
	}
	withHint := SearchReq{H: 4, Engine: EngineMIH, Queries: queries}.Append(nil)
	if _, err := ParseSearchReq(append(append([]byte(nil), withHint...), 1), 64); err == nil {
		t.Error("trailing bytes after engine hint accepted")
	}
}

// TestShedRespRoundTrip: the shed payload round-trips and rejects junk.
func TestShedRespRoundTrip(t *testing.T) {
	payload := ShedResp{WaitNs: 123456789}.Append(nil)
	got, err := ParseShedResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.WaitNs != 123456789 {
		t.Fatalf("WaitNs round trip: %d", got.WaitNs)
	}
	if _, err := ParseShedResp(append(payload, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := ParseShedResp(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestGoldenBytes pins the frames the benchmark and the router exchange, and
// the snapshot header, to bytes: a change to any of them is a version bump,
// never a silent edit. The search requests and the snapshot header are the
// bytes captured at commit e5ed28f, before protocol v6 and HASN v4 became the
// only versions; protocol v7 dropped the priority varint after the engine
// hint and the stats frame's cache and pool fields, and the hello carries
// the version number; v8 dropped the insert acknowledgement's upsert count;
// v9 made the insert frame the one write frame (its ids, then its codes or
// none, which is a delete) and its acknowledgement the live count alone.
func TestGoldenBytes(t *testing.T) {
	q := []bitvec.Code{bitvec.MustFromString("1010110011110000"), bitvec.MustFromString("0000111100110101")}
	frozen := buildFrozen(q, []int{7, 9})
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, SnapshotMeta{Part: 1, Parts: 3, Length: 16, Pivots: q}, frozen); err != nil {
		t.Fatal(err)
	}
	const hasnHeader = "4841534e0401031002acf00000000000000f3500000000000006000000000000"
	for _, tc := range []struct {
		name, want string
		got        []byte
	}{
		{"search default", "0302acf00000000000000f35000000000000", SearchReq{H: 3, Queries: q}.Append(nil)},
		{"search engine hint", "0302acf00000000000000f3500000000000002", SearchReq{H: 3, Engine: EngineMIH, Queries: q}.Append(nil)},
		{"stats", "010203040506070809e807d00fb817a01f0e",
			StatsResp{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 2000, 3000, 4000, 14}.Append(nil)},
		{"hello-ok", "09100103ac0202acf00000000000000f35000000000000",
			HelloOK{Version: Version, SnapshotMeta: SnapshotMeta{Length: 16, Part: 1, Parts: 3, Pivots: q}, Tuples: 300}.Append(nil)},
		{"shed", "e0c65b", ShedResp{WaitNs: 1500000}.Append(nil)},
		{"upsert", "02070902acf00000000000000f35000000000000", InsertReq{IDs: []int{7, 9}, Codes: q}.Append(nil)},
		{"delete", "0203ac0200", InsertReq{IDs: []int{3, 300}}.Append(nil)},
		{"write-ok", "02", InsertResp{Live: 2}.Append(nil)},
		{"HASN header + pad, then the arena", hasnHeader + "4841445804000000", snap.Bytes()[:len(hasnHeader)/2+8]},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if snap.Len() != 400 {
		t.Errorf("snapshot is %d bytes, was 400", snap.Len())
	}
}

package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haindex/internal/core"
)

// writeArenaSnapshot builds a frozen shard and writes it as a v4 snapshot
// file, returning the path and the source index.
func writeArenaSnapshot(t *testing.T, dir string) (string, SnapshotMeta, *core.FrozenIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(44))
	meta, frozen, _ := buildSnapshot(t, rng, 64, 3)
	path := filepath.Join(dir, "shard.hasn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, meta, frozen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, meta, frozen
}

// TestArenaSnapshotRoundTrip: a v4 snapshot reads back through both the
// eager ReadSnapshotFile and the zero-copy MapSnapshotFile, and both answer
// exactly like the source index.
func TestArenaSnapshotRoundTrip(t *testing.T) {
	path, meta, frozen := writeArenaSnapshot(t, t.TempDir())

	gotMeta, eager, err := ReadSnapshotFile(path)
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

	mapMeta, mapped, err := MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapMeta.Part != meta.Part || mapMeta.Length != meta.Length {
		t.Fatalf("mapped meta: %+v vs %+v", mapMeta, meta)
	}

	esr, msr, osr := core.NewSearcher(eager), core.NewSearcher(mapped), core.NewSearcher(frozen)
	for _, q := range frozen.Codes()[:20] {
		want := append([]int(nil), osr.Search(q, 3)...)
		if got := esr.Search(q, 3); !sameIDs(got, want) {
			t.Fatalf("eager v4 answers %d ids, want %d", len(got), len(want))
		}
		if got := msr.Search(q, 3); !sameIDs(got, want) {
			t.Fatalf("mapped v4 answers %d ids, want %d", len(got), len(want))
		}
	}
}

// TestSnapshotVersionRejected: a header carrying any version but the one
// this build writes is refused by name, by both readers, on the version
// varint alone — nothing follows it in these files, so a reader that looked
// further would report a truncation instead.
func TestSnapshotVersionRejected(t *testing.T) {
	dir := t.TempDir()
	for _, v := range []byte{1, 2, 3, 5} {
		data := append([]byte("HASN"), v)
		want := fmt.Sprintf("unsupported snapshot version %d", v)
		if _, _, err := decodeSnapshot(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decodeSnapshot on version %d: %v", v, err)
		}
		path := filepath.Join(dir, "old.hasn")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapSnapshotFile(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("MapSnapshotFile on version %d: %v", v, err)
		}
	}
}

// TestArenaSnapshotCorrupt: splices and pad corruption must be rejected by
// both readers, never crash.
func TestArenaSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := writeArenaSnapshot(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Locate the embedded arena: it starts at the first 8-aligned offset
	// whose bytes are the HADX magic with version 4.
	arenaOff := -1
	for off := 8; off+8 < len(data); off += 8 {
		if string(data[off:off+4]) == "HADX" && data[off+4] == 4 {
			arenaOff = off
			break
		}
	}
	if arenaOff < 0 {
		t.Fatal("embedded arena not found")
	}

	// Splice: the snapshot header over a body of the retired v1 pointer
	// encoding (64-bit codes, ids present, one group).
	spliced := append([]byte(nil), data[:arenaOff]...)
	spliced = append(spliced, "HADX\x01\x40\x01\x01"...)
	spliced = append(spliced, make([]byte, 64)...)
	if _, _, err := decodeSnapshot(spliced); err == nil {
		t.Error("snapshot header over a v1 pointer body accepted")
	}

	// Deleting one byte just before the arena either breaks the pad chain or
	// leaves the arena misaligned — both readers must notice.
	shifted := append(append([]byte(nil), data[:arenaOff-1]...), data[arenaOff:]...)
	cases := [][]byte{
		data[:arenaOff-1],                     // truncated before the arena
		data[:len(data)-9],                    // truncated inside the arena
		shifted,                               // arena shifted off alignment
		corruptAt(data, arenaOff+4, 9),        // wrong embedded version
		append(data[:len(data):len(data)], 1), // trailing garbage breaks tight layout
	}
	for i, c := range cases {
		if _, _, err := decodeSnapshot(c); err == nil {
			t.Errorf("corrupt case %d accepted by decodeSnapshot", i)
		}
		bad := filepath.Join(dir, "bad.hasn")
		if err := os.WriteFile(bad, c, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapSnapshotFile(bad); err == nil {
			t.Errorf("corrupt case %d accepted by MapSnapshotFile", i)
		}
	}
}

func corruptAt(data []byte, off int, v byte) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= v
	return out
}

func sameIDs(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[int]int{}
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}

// TestReadSnapshotFileReadsOnce: an eager load reads the file once, into a
// buffer of its size that the index aliases, so it allocates less than 1.5×
// the file — io.ReadAll's growth plus a copy of every slab came to about 3× —
// and it answers every query exactly as the mapped load of the file does.
func TestReadSnapshotFileReadsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	codes := randCodes(rng, 20000, 64)
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = 3*i + 1
	}
	meta := SnapshotMeta{Parts: 1, Length: 64}
	path := filepath.Join(t.TempDir(), "shard.hasn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, meta, buildFrozen(codes, ids)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var eager *core.FrozenIndex
	alloc := allocatedBy(func() {
		if _, eager, err = ReadSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(st.Size()) * 3 / 2; alloc >= limit {
		t.Fatalf("an eager load of a %d-byte snapshot allocated %d bytes, want under %d", st.Size(), alloc, limit)
	}
	_, mapped, err := MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	esr, msr := core.NewSearcher(eager), core.NewSearcher(mapped)
	for i := 0; i < 64; i++ {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(64))
		for _, h := range []int{0, 3, 12} {
			want := append([]int(nil), msr.Search(q, h)...)
			if got := esr.Search(q, h); !sameIDs(got, want) {
				t.Fatalf("h=%d: the eager load answers %d ids, the mapped load %d", h, len(got), len(want))
			}
		}
	}
}

// TestWriteSnapshotStreamAbortsOnBadHeader: a header that cannot be written
// still consumes the stream writer, so its spool directory does not outlive
// the call.
func TestWriteSnapshotStreamAbortsOnBadHeader(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sw, err := core.NewFrozenStreamWriter(32, 16, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshotStream(&buf, SnapshotMeta{Part: 5, Parts: 2, Length: 32}, sw); err == nil {
		t.Fatal("partition 5 of 2 was written")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("the stream writer's spool outlived the failed write: %v", left)
	}
}

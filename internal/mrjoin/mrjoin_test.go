package mrjoin

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/dataset"
	"haindex/internal/dfs"
	"haindex/internal/knn"
	"haindex/internal/vector"
)

func testOptions() Options {
	return Options{Bits: 32, Partitions: 4, Nodes: 4, SampleRate: 0.2, Threshold: 3, Seed: 1}
}

func testData(t *testing.T, nr, ns int) (r, s []vector.Vec) {
	t.Helper()
	// One generation so R and S share cluster structure (they model two
	// tables over the same feature space).
	prof := dataset.Profile{Name: "test", Dim: 24, Clusters: 6, Skew: 0.8, Spread: 0.03}
	data := dataset.Generate(prof, nr+ns, 11)
	return data[:nr], data[nr:]
}

// testData32 is testData with float32-valued components, as a feature store
// holds them: for tests whose own oracle (an exact kNN, a monolithic index)
// reads the vectors directly and must see the values the jobs see.
func testData32(t *testing.T, nr, ns int) (r, s []vector.Vec) {
	r, s = testData(t, nr, ns)
	for _, v := range append(append([]vector.Vec{}, r...), s...) {
		for i, x := range v {
			v[i] = float64(float32(x))
		}
	}
	return r, s
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
}

func equalPairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPreprocess(t *testing.T) {
	r, s := testData(t, 300, 200)
	pre, err := Preprocess(r, s, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pre.Hash.Bits() != 32 {
		t.Errorf("bits = %d", pre.Hash.Bits())
	}
	if len(pre.Pivots) != 3 {
		t.Errorf("pivots = %d", len(pre.Pivots))
	}
	if pre.SampleSize != 100 {
		t.Errorf("sample = %d want 100", pre.SampleSize)
	}
}

// TestJoinEquivalence: both MRHA options and PMH must produce exactly the
// centralized Hamming-join.
func TestJoinEquivalence(t *testing.T) {
	r, s := testData(t, 400, 300)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(r, s, pre, opt.Threshold)
	if len(want) == 0 {
		t.Fatal("reference join empty; test data too sparse")
	}

	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g.Index.Len() != len(r) {
		t.Fatalf("global index Len=%d want %d", g.Index.Len(), len(r))
	}

	a, err := HammingJoinA(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(a.Pairs, want) {
		t.Errorf("option A: %d pairs want %d", len(a.Pairs), len(want))
	}

	b, err := HammingJoinB(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(b.Pairs, want) {
		t.Errorf("option B: %d pairs want %d", len(b.Pairs), len(want))
	}

	p, err := PMHJoin(r, s, pre, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(p.Pairs, want) {
		t.Errorf("PMH: %d pairs want %d", len(p.Pairs), len(want))
	}
}

// TestShuffleOrdering reproduces the Figure 7 ordering at miniature scale:
// PGBJ (full-dimensional shuffle) ≫ PMH (whole-R broadcast) > MRHA-A
// (index broadcast) ≥ MRHA-B (leafless index broadcast).
func TestShuffleOrdering(t *testing.T) {
	r, s := testData(t, 500, 500)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := HammingJoinA(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HammingJoinB(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PMHJoin(r, s, pre, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := PGBJ(r, s, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the data movement each plan needs beyond the join output:
	// broadcast plus shuffle of its input-side records.
	costA := a.Metrics.BroadcastBytes + g.Metrics.ShuffleBytes + shuffleIn(a)
	costB := b.Metrics.BroadcastBytes + g.Metrics.ShuffleBytes + shuffleIn(b)
	costP := p.Metrics.BroadcastBytes + shuffleIn(p)
	costPG := pg.Metrics.ShuffleBytes + pg.Metrics.BroadcastBytes
	if costPG <= costP {
		t.Errorf("PGBJ (%d) should shuffle more than PMH (%d)", costPG, costP)
	}
	if costP <= costA {
		t.Errorf("PMH (%d) should cost more than MRHA-A (%d)", costP, costA)
	}
	if costB > costA {
		t.Errorf("MRHA-B (%d) should not cost more than MRHA-A (%d)", costB, costA)
	}
}

// shuffleIn isolates the S-side input shuffle (excludes emitted join pairs,
// which are identical across equivalent plans).
func shuffleIn(j *JoinResult) int64 {
	return j.Metrics.ShuffleBytes - int64(len(j.Pairs))*16
}

// TestPGBJExact: the pivot-partitioned join must equal the brute-force
// kNN-join.
func TestPGBJExact(t *testing.T) {
	r, s := testData32(t, 300, 60)
	opt := testOptions()
	k := 5
	res, err := PGBJ(r, s, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != len(s) {
		t.Fatalf("neighbors for %d tuples want %d", len(res.Neighbors), len(s))
	}
	for sid, got := range res.Neighbors {
		want := knn.Exact(r, s[sid], k)
		if len(got) != len(want) {
			t.Fatalf("sid %d: %d neighbors want %d", sid, len(got), len(want))
		}
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("sid %d rank %d: dist %v want %v (ids %d vs %d)",
					sid, i, got[i].Dist, want[i].Dist, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestPGBJErrors(t *testing.T) {
	if _, err := PGBJ(nil, nil, 5, testOptions()); err == nil {
		t.Fatal("expected error on empty input")
	}
}

// TestLoadBalance: histogram pivots should keep reducer skew low on skewed
// data (the Section 5.1 goal).
func TestLoadBalance(t *testing.T) {
	prof := dataset.Profile{Name: "skewed", Dim: 16, Clusters: 2, Skew: 1.5, Spread: 0.02}
	r := dataset.Generate(prof, 2000, 31)
	opt := testOptions()
	opt.Partitions = 8
	pre, err := Preprocess(r, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	if skew := g.Metrics.Skew(); skew > 3 {
		t.Errorf("reducer skew %.2f too high for histogram partitioning", skew)
	}
}

func TestVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	v := make(vector.Vec, 10)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	back := shipped(nil, appendVec(nil, v))
	for i := range v {
		if back[i] != float64(float32(v[i])) {
			t.Fatalf("component %d: %v shipped as %v", i, v[i], back[i])
		}
	}
	// VecInput's slab-carved records are the per-tuple encoding, at sizes
	// that leave its workers uneven runs (or none).
	for _, n := range []int{0, 1, 2, 3, 17} {
		data := make([]vector.Vec, n)
		for i := range data {
			data[i] = v[:1+i%len(v)]
		}
		for i, kv := range VecInput(data) {
			if decodeID(kv.Key) != i || !bytes.Equal(kv.Value, appendVec(nil, data[i])) {
				t.Fatalf("n=%d record %d: key %x value %x", n, i, kv.Key, kv.Value)
			}
			if cap(kv.Key) != 4 || cap(kv.Value) != len(kv.Value) {
				t.Fatalf("n=%d record %d: an append could reach the next record", n, i)
			}
		}
	}
}

func TestIDCodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	for i := 0; i < 50; i++ {
		c := randCode(rng, 32)
		ids, back, err := decodeIDCodeBatch([][]byte{appendIDCode(nil, 7, c)}, 32)
		if err != nil || ids[0] != 7 || !back[0].Equal(c) {
			t.Fatalf("roundtrip failed: %v", err)
		}
	}
	if _, _, err := decodeIDCodeBatch([][]byte{{1, 2}}, 32); err == nil {
		t.Fatal("expected short-record error")
	}
}

func randCode(rng *rand.Rand, n int) bitvec.Code {
	return bitvec.Rand(rng, n)
}

// TestHammingJoinBLarge: the large-R MapReduce hash-join path must produce
// exactly the same pairs as the in-memory Option B and the reference.
func TestHammingJoinBLarge(t *testing.T) {
	r, s := testData(t, 350, 250)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(r, s, pre, opt.Threshold)
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	big, err := HammingJoinBLarge(r, s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(big.Pairs, want) {
		t.Errorf("large-R option B: %d pairs want %d", len(big.Pairs), len(want))
	}
	small, err := HammingJoinB(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(big.Pairs, small.Pairs) {
		t.Error("large and small Option B disagree")
	}
	// The second job costs extra shuffle (it reshuffles R's codes), which
	// is the trade the paper describes for not holding R in memory.
	if big.Metrics.ShuffleBytes <= small.Metrics.ShuffleBytes {
		t.Error("large-R path should shuffle more than the in-memory path")
	}
}

// TestBuildGlobalIndexViaDFS routes the local arenas through the simulated
// distributed filesystem and verifies the global index is byte for byte the
// one the in-memory handoff lays.
func TestBuildGlobalIndexViaDFS(t *testing.T) {
	r, _ := testData(t, 400, 100)
	opt := testOptions()
	pre, err := Preprocess(r, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	withFS := opt
	withFS.FS = dfs.New(3)
	viaDFS, err := BuildGlobalIndex(r, pre, withFS)
	if err != nil {
		t.Fatal(err)
	}
	if viaDFS.DFSWritten == 0 || viaDFS.DFSRead == 0 {
		t.Fatalf("DFS accounting empty: w=%d r=%d", viaDFS.DFSWritten, viaDFS.DFSRead)
	}
	// Replication factor 3 on writes.
	if viaDFS.DFSWritten != 3*viaDFS.DFSRead {
		t.Fatalf("expected 3x replication: w=%d r=%d", viaDFS.DFSWritten, viaDFS.DFSRead)
	}
	var a, b bytes.Buffer
	if err := plain.Index.EncodeArena(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := viaDFS.Index.EncodeArena(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("DFS-built index differs from the in-memory one")
	}
}

func hashCodes(pre *Preprocessed, vs []vector.Vec) []bitvec.Code {
	out := make([]bitvec.Code, len(vs))
	for i, v := range vs {
		out[i] = pre.Hash.Hash(v)
	}
	return out
}

// TestMismatchedBitsFails: a configuration whose code length disagrees with
// the learned hash must surface a decode error, not corrupt results.
func TestMismatchedBitsFails(t *testing.T) {
	r, _ := testData(t, 100, 10)
	opt := testOptions()
	pre, err := Preprocess(r, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad := opt
	bad.Bits = 64 // hash produces 32-bit codes
	if _, err := BuildGlobalIndex(r, pre, bad); err == nil {
		t.Fatal("expected decode error from mismatched code length")
	}
}

// TestOptionBLeaflessBroadcastSmaller: every node is charged the bytes it
// receives — the global index's encoded arena, with its ids for Option A and
// the select job and leafless for Option B, beside the hash function and,
// for the joins, the pivots — so Option B's broadcast is strictly smaller
// than Option A's (the Section 5.3 point).
func TestOptionBLeaflessBroadcastSmaller(t *testing.T) {
	r, s := testData(t, 500, 200)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := HammingJoinA(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HammingJoinB(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := HammingSelect(s, g, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	nodes, hash, pivots := int64(opt.Nodes), hashFuncSize(pre), pivotsSize(pre)
	for _, c := range []struct {
		plan      string
		got, want int64
	}{
		{"option A", a.Metrics.BroadcastBytes, (int64(g.Index.EncodedSizeArena(true)) + hash + pivots) * nodes},
		{"option B", b.Metrics.BroadcastBytes, (int64(g.Index.EncodedSizeArena(false)) + hash + pivots) * nodes},
		{"select", sel.Metrics.BroadcastBytes, (int64(g.Index.EncodedSizeArena(true)) + hash) * nodes},
	} {
		if c.got != c.want {
			t.Errorf("%s charged %d broadcast bytes, want %d", c.plan, c.got, c.want)
		}
	}
	if b.Metrics.BroadcastBytes >= a.Metrics.BroadcastBytes {
		t.Fatalf("leafless broadcast %d should be below leafy %d",
			b.Metrics.BroadcastBytes, a.Metrics.BroadcastBytes)
	}
}

// TestEmptyR: building over an empty R reports an error.
func TestEmptyR(t *testing.T) {
	_, s := testData(t, 10, 50)
	opt := testOptions()
	pre, err := Preprocess(s, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGlobalIndex(nil, pre, opt); err == nil {
		t.Fatal("expected error for empty R")
	}
}

// TestJoinSearchWorkersEquivalence: the batched reducers must produce the
// same pairs at every per-reducer worker count, including the serial one.
func TestJoinSearchWorkersEquivalence(t *testing.T) {
	r, s := testData(t, 350, 250)
	opt := testOptions()
	pre, err := Preprocess(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceJoin(r, s, pre, opt.Threshold)
	for _, workers := range []int{1, 2, 4, 0} {
		opt.SearchWorkers = workers
		a, err := HammingJoinA(s, g, pre, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPairs(a.Pairs, want) {
			t.Errorf("option A workers=%d: %d pairs want %d", workers, len(a.Pairs), len(want))
		}
		b, err := HammingJoinB(s, g, pre, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPairs(b.Pairs, want) {
			t.Errorf("option B workers=%d: %d pairs want %d", workers, len(b.Pairs), len(want))
		}
	}
}

// TestHammingSelect: the distributed select matches per-query reference
// scans, at several per-reducer worker counts.
func TestHammingSelect(t *testing.T) {
	r, q := testData(t, 400, 60)
	opt := testOptions()
	pre, err := Preprocess(r, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGlobalIndex(r, pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(q))
	for _, p := range ReferenceJoin(r, q, pre, opt.Threshold) {
		want[p.SID] = append(want[p.SID], p.RID)
	}
	for _, workers := range []int{1, 4} {
		opt.SearchWorkers = workers
		res, err := HammingSelect(q, g, pre, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != len(q) {
			t.Fatalf("workers=%d: %d result lists for %d queries", workers, len(res.IDs), len(q))
		}
		for i := range want {
			got := append([]int(nil), res.IDs[i]...)
			exp := append([]int(nil), want[i]...)
			sort.Ints(got)
			sort.Ints(exp)
			if len(got) != len(exp) {
				t.Fatalf("workers=%d query %d: got %d ids want %d", workers, i, len(got), len(exp))
			}
			for k := range got {
				if got[k] != exp[k] {
					t.Fatalf("workers=%d query %d: id mismatch at %d", workers, i, k)
				}
			}
		}
		if res.Metrics.BroadcastBytes == 0 {
			t.Error("select job charged no broadcast bytes")
		}
	}
}

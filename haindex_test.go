package haindex_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"haindex"
)

// TestPublicAPIEndToEnd drives the full public workflow: generate, learn,
// hash, index, select, kNN, and the distributed join.
func TestPublicAPIEndToEnd(t *testing.T) {
	data := haindex.Generate(haindex.NUSWide, 800, 1)
	hf, err := haindex.LearnSpectralHash(haindex.Sample(data, 200, 2), 32)
	if err != nil {
		t.Fatal(err)
	}
	codes := haindex.HashAll(hf, data)

	idx := haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{})
	q := hf.Hash(data[5])
	got := idx.Search(q, 3)
	found := false
	for _, id := range got {
		if id == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("query tuple missing from its own neighborhood")
	}
	// Cross-check against the nested-loop facade baseline.
	nl := haindex.NewNestedLoop(codes, nil)
	want := nl.Search(q, 3)
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("DHA %d vs NL %d results", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("result sets differ")
		}
	}

	// kNN.
	s := haindex.NewHammingKNN(idx, hf, data)
	ns := s.Select(data[5], 5)
	if len(ns) != 5 || ns[0].ID != 5 || ns[0].Dist != 0 {
		t.Fatalf("kNN self lookup: %v", ns)
	}
	exact := haindex.ExactKNN(data, data[5], 5)
	if haindex.Recall(ns, exact) < 0.2 {
		t.Fatalf("recall too low: %v vs %v", ns, exact)
	}

	// Distributed join (tiny).
	opt := haindex.JoinOptions{Bits: 32, Nodes: 2, Partitions: 2, SampleRate: 0.2, Threshold: 3, Seed: 1}
	pre, err := haindex.PrepareJoin(data[:400], data[400:], opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := haindex.BuildGlobalIndex(data[:400], pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := haindex.HammingJoin(data[400:], g, pre, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := haindex.HammingJoin(data[400:], g, pre, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("options disagree: %d vs %d pairs", len(a.Pairs), len(b.Pairs))
	}
}

// TestPaperExamplePublic re-runs Example 1 through the facade.
func TestPaperExamplePublic(t *testing.T) {
	codes := []haindex.Code{
		haindex.MustCode("001 001 010"),
		haindex.MustCode("001 011 101"),
		haindex.MustCode("011 001 100"),
		haindex.MustCode("101 001 010"),
		haindex.MustCode("101 110 110"),
		haindex.MustCode("101 011 101"),
		haindex.MustCode("101 101 010"),
		haindex.MustCode("111 001 100"),
	}
	for _, build := range []func() interface {
		Search(haindex.Code, int) []int
	}{
		func() interface {
			Search(haindex.Code, int) []int
		} {
			return haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{Window: 2})
		},
		func() interface {
			Search(haindex.Code, int) []int
		} {
			return haindex.BuildStaticIndex(codes, nil, 3)
		},
		func() interface {
			Search(haindex.Code, int) []int
		} {
			return haindex.BuildRadixTree(codes, nil)
		},
	} {
		idx := build()
		got := idx.Search(haindex.MustCode("101100010"), 3)
		sort.Ints(got)
		want := []int{0, 3, 4, 6}
		if len(got) != len(want) {
			t.Fatalf("got %v want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v want %v", got, want)
			}
		}
	}
}

func TestDistanceFacade(t *testing.T) {
	a := haindex.MustCode("101100010")
	b := haindex.MustCode("001001010")
	if haindex.Distance(a, b) != 3 {
		t.Fatal("distance mismatch")
	}
	if haindex.NewCode(8).Len() != 8 {
		t.Fatal("NewCode length")
	}
	if _, err := haindex.CodeFromString("10x"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestPivotsFacade(t *testing.T) {
	data := haindex.Generate(haindex.DBPedia, 300, 3)
	hf, err := haindex.LearnSpectralHash(data, 32)
	if err != nil {
		t.Fatal(err)
	}
	codes := haindex.HashAll(hf, data)
	pivots := haindex.Pivots(codes, 4)
	if len(pivots) != 3 {
		t.Fatalf("pivots = %d", len(pivots))
	}
	counts := make([]int, 4)
	for _, c := range codes {
		counts[haindex.PartitionOf(pivots, c)]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty: %v", p, counts)
		}
	}
}

func TestMergeIndexesFacade(t *testing.T) {
	a := haindex.BuildDynamicIndex([]haindex.Code{haindex.MustCode("0000")}, []int{0}, haindex.IndexOptions{})
	b := haindex.BuildDynamicIndex([]haindex.Code{haindex.MustCode("1111")}, []int{1}, haindex.IndexOptions{})
	g := haindex.MergeIndexes(a, b)
	if g.Len() != 2 {
		t.Fatalf("Len=%d", g.Len())
	}
	if got := g.Search(haindex.MustCode("1110"), 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
}

// TestDecodeFrozenIndexFacade: the frozen form's one serialisation, the v4
// arena, round-trips through the facade and answers like the index encoded;
// the v1 pointer encoding is refused.
func TestDecodeFrozenIndexFacade(t *testing.T) {
	data := haindex.Generate(haindex.NUSWide, 300, 4)
	hf, err := haindex.LearnSpectralHash(data, 32)
	if err != nil {
		t.Fatal(err)
	}
	codes := haindex.HashAll(hf, data)
	dyn := haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{})
	x := haindex.FreezeIndex(dyn)
	var buf bytes.Buffer
	if err := x.EncodeArena(&buf, true); err != nil {
		t.Fatal(err)
	}
	got, err := haindex.DecodeFrozenIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gs, xs := haindex.NewSearcher(got), haindex.NewSearcher(x)
	for _, q := range codes[:40] {
		g := append([]int(nil), gs.Search(q, 4)...)
		w := append([]int(nil), xs.Search(q, 4)...)
		sort.Ints(g)
		sort.Ints(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("decoded arena answers %v, want %v", g, w)
		}
	}
	// The v1 pointer encoding's header: 32-bit codes, ids present, one group.
	v1 := append([]byte("HADX\x01\x20\x01\x01"), make([]byte, 8)...)
	if _, err := haindex.DecodeFrozenIndex(bytes.NewReader(v1)); err == nil {
		t.Fatal("DecodeFrozenIndex accepted the v1 pointer encoding")
	}
}

func TestLocalHammingJoin(t *testing.T) {
	r := []haindex.Code{haindex.MustCode("0000"), haindex.MustCode("1111")}
	s := []haindex.Code{haindex.MustCode("0001"), haindex.MustCode("0111")}
	pairs := haindex.LocalHammingJoin(r, s, 1)
	want := map[haindex.Pair]bool{
		{RID: 0, SID: 0}: true, // 0000~0001
		{RID: 1, SID: 1}: true, // 1111~0111
	}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

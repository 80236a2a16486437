package gray

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"haindex/internal/bitvec"
)

func TestRankSmall(t *testing.T) {
	// Classic 3-bit reflected Gray sequence: 000,001,011,010,110,111,101,100.
	seq := []string{"000", "001", "011", "010", "110", "111", "101", "100"}
	for rank, s := range seq {
		g := bitvec.MustFromString(s)
		r := Rank(g)
		if got := int(r.Uint64()); got != rank {
			t.Errorf("Rank(%s) = %d, want %d", s, got, rank)
		}
		if back := FromRank(r); !back.Equal(g) {
			t.Errorf("FromRank(Rank(%s)) = %s", s, back.String())
		}
	}
}

func TestRankRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		g := bitvec.Rand(rng, n)
		return FromRank(Rank(g)).Equal(g) && Rank(FromRank(g)).Equal(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAdjacencyProperty verifies Definition 5: consecutive ranks map to
// codewords at Hamming distance exactly 1, including across word boundaries.
func TestAdjacencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(200)
		r := bitvec.Rand(rng, n)
		// next rank = r + 1 (big-endian increment); skip all-ones.
		next := increment(r)
		if next.IsZero() {
			continue
		}
		a, b := FromRank(r), FromRank(next)
		if d := a.Distance(b); d != 1 {
			t.Fatalf("adjacent gray codes at distance %d (n=%d rank=%s)", d, n, r.String())
		}
	}
}

// increment adds one to a big-endian code; returns zero value on overflow.
func increment(c bitvec.Code) bitvec.Code {
	out := c.Clone()
	for i := c.Len() - 1; i >= 0; i-- {
		if !out.Bit(i) {
			out.SetBit(i, true)
			return out
		}
		out.SetBit(i, false)
	}
	return bitvec.Code{}
}

func TestCompareAgainstRanks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := bitvec.Rand(rng, n), bitvec.Rand(rng, n)
		want := Rank(a).Compare(Rank(b))
		return Compare(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompareReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 100; i++ {
		c := bitvec.Rand(rng, 1+rng.Intn(100))
		if Compare(c, c) != 0 {
			t.Fatal("Compare(c,c) != 0")
		}
	}
}

func TestSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(100)
		count := 1 + rng.Intn(200)
		codes := make([]bitvec.Code, count)
		ids := make([]int, count)
		for i := range codes {
			codes[i] = bitvec.Rand(rng, n)
			ids[i] = i
		}
		orig := make([]bitvec.Code, count)
		copy(orig, codes)
		Sort(codes, ids)
		if !IsSorted(codes) {
			t.Fatal("not gray-sorted")
		}
		// ids permuted consistently with codes.
		for i, id := range ids {
			if !codes[i].Equal(orig[id]) {
				t.Fatal("ids not permuted consistently")
			}
		}
	}
}

// TestSortClusters checks Proposition 2 qualitatively: after Gray sorting,
// the average adjacent-pair Hamming distance is no worse than under
// lexicographic sorting, and strictly better than random order on clustered
// data.
func TestSortClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 64
	var codes []bitvec.Code
	for c := 0; c < 8; c++ {
		center := bitvec.Rand(rng, n)
		for i := 0; i < 50; i++ {
			v := center.Clone()
			for f := 0; f < 3; f++ {
				v.FlipBit(rng.Intn(n))
			}
			codes = append(codes, v)
		}
	}
	adjSum := func(cs []bitvec.Code) int {
		s := 0
		for i := 1; i < len(cs); i++ {
			s += cs[i-1].Distance(cs[i])
		}
		return s
	}
	shuffled := make([]bitvec.Code, len(codes))
	copy(shuffled, codes)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	randomSum := adjSum(shuffled)

	graySorted := make([]bitvec.Code, len(codes))
	copy(graySorted, codes)
	Sort(graySorted, nil)
	graySum := adjSum(graySorted)

	lexSorted := make([]bitvec.Code, len(codes))
	copy(lexSorted, codes)
	sort.Slice(lexSorted, func(i, j int) bool { return lexSorted[i].Compare(lexSorted[j]) < 0 })
	lexSum := adjSum(lexSorted)

	if graySum >= randomSum {
		t.Errorf("gray order (%d) should cluster better than random (%d)", graySum, randomSum)
	}
	if graySum > lexSum {
		t.Errorf("gray order (%d) should be no worse than lexicographic (%d)", graySum, lexSum)
	}
}

func TestPaperSortExample(t *testing.T) {
	// Table 2a codes; the paper sorts them into {t0,t1,t2,t7,t4,t6,t3,t5}
	// "based on the Gray order ... in descending order". Verify that our
	// ordering is a valid Gray ordering (monotone ranks) over those codes
	// and that t2,t7 — the pair the paper highlights — end up adjacent.
	codes := []bitvec.Code{
		bitvec.MustFromString("001001010"), // t0
		bitvec.MustFromString("001011101"), // t1
		bitvec.MustFromString("011001100"), // t2
		bitvec.MustFromString("101001010"), // t3
		bitvec.MustFromString("101110110"), // t4
		bitvec.MustFromString("101011101"), // t5
		bitvec.MustFromString("101101010"), // t6
		bitvec.MustFromString("111001100"), // t7
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Sort(codes, ids)
	if !IsSorted(codes) {
		t.Fatal("not sorted")
	}
	pos := make(map[int]int)
	for i, id := range ids {
		pos[id] = i
	}
	if d := pos[2] - pos[7]; d != 1 && d != -1 {
		t.Errorf("t2 and t7 should be adjacent in Gray order, positions %d and %d", pos[2], pos[7])
	}
}

// TestSortProperty: Sort and SortRows leave the codes in Gray order, carry
// the ids (stably: equal codes keep their input order), accept ids == nil,
// and agree with each other, at one, two and three words a code — lengths off
// the word boundary included, where a rank's unused tail bits must stay zero
// for flat word comparison to be rank comparison — with duplicates, and on
// input already in order. SortRows' lex order is plain word order.
func TestSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, length := range []int{1, 8, 33, 64, 65, 100, 128, 130, 192} {
		nw := (length + 63) / 64
		for _, n := range []int{0, 1, 2, 3, 17, 500} {
			codes := make([]bitvec.Code, n)
			for i := range codes {
				if i > 0 && rng.Intn(4) == 0 {
					codes[i] = codes[rng.Intn(i)] // a duplicate
					continue
				}
				codes[i] = bitvec.Rand(rng, length)
				if rng.Intn(2) == 0 && i > 0 {
					// A near neighbour: shares its leading words with another code.
					codes[i] = codes[rng.Intn(i)].Clone()
					codes[i].FlipBit(length - 1 - rng.Intn(min(length, 9)))
				}
			}
			pack := func() (rows []uint64, ids []int) {
				for i, c := range codes {
					rows = append(rows, c.Words()...)
					ids = append(ids, i)
				}
				return rows, ids
			}
			check := func(what string, rows []uint64, ids []int, less func(a, b bitvec.Code) bool) {
				t.Helper()
				var prev bitvec.Code
				for i := 0; i < n; i++ {
					c := bitvec.FromWordsShared(rows[i*nw:(i+1)*nw], length)
					if ids != nil && !c.Equal(codes[ids[i]]) {
						t.Fatalf("L=%d n=%d %s: position %d holds id %d without its code", length, n, what, i, ids[i])
					}
					if i > 0 && (less(c, prev) || (ids != nil && c.Equal(prev) && ids[i] < ids[i-1])) {
						t.Fatalf("L=%d n=%d %s: position %d out of order", length, n, what, i)
					}
					prev = c
				}
			}
			grayLess := func(a, b bitvec.Code) bool { return Compare(a, b) < 0 }
			lexLess := func(a, b bitvec.Code) bool { return a.Compare(b) < 0 }

			rows, ids := pack()
			SortRows(length, rows, ids, false)
			check("SortRows", rows, ids, grayLess)
			again := append([]uint64(nil), rows...)
			SortRows(length, again, nil, false) // in order already, and no ids
			if !slices.Equal(again, rows) {
				t.Fatalf("L=%d n=%d: SortRows moved rows already in order", length, n)
			}
			bare, _ := pack()
			SortRows(length, bare, nil, false)
			if !slices.Equal(bare, rows) {
				t.Fatalf("L=%d n=%d: SortRows orders the rows differently without ids", length, n)
			}
			lexRows, lexIDs := pack()
			SortRows(length, lexRows, lexIDs, true)
			check("SortRows lex", lexRows, lexIDs, lexLess)

			sorted, sortedIDs := append([]bitvec.Code(nil), codes...), make([]int, n)
			for i := range sortedIDs {
				sortedIDs[i] = i
			}
			Sort(sorted, sortedIDs)
			if !IsSorted(sorted) || !slices.Equal(sortedIDs, ids) {
				t.Fatalf("L=%d n=%d: Sort is out of order or disagrees with SortRows", length, n)
			}
			for i, c := range sorted {
				if !c.Equal(codes[sortedIDs[i]]) {
					t.Fatalf("L=%d n=%d: Sort moved id %d without its code", length, n, sortedIDs[i])
				}
			}
			noIDs := append([]bitvec.Code(nil), codes...)
			Sort(noIDs, nil)
			if !IsSorted(noIDs) {
				t.Fatalf("L=%d n=%d: Sort without ids is out of order", length, n)
			}
		}
	}
}

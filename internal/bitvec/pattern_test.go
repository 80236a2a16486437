package bitvec

import (
	"math/rand"
	"testing"
)

func TestPatternFromString(t *testing.T) {
	p := MustPatternFromString("···0·010")
	if p.Len() != 8 {
		t.Fatalf("len=%d", p.Len())
	}
	if p.FixedCount() != 4 {
		t.Fatalf("fixed=%d", p.FixedCount())
	}
	if p.String() != "···0·010" {
		t.Fatalf("string=%q", p.String())
	}
	// '.' and '*' also accepted.
	q := MustPatternFromString("..10*1")
	if q.FixedCount() != 3 {
		t.Fatalf("fixed=%d", q.FixedCount())
	}
}

// TestPaperFLSSExamples checks the FLSS/FLSSeq examples of Section 4.1.
func TestPaperFLSSExamples(t *testing.T) {
	t0 := MustFromString("001101010")
	// U = "····0101·" is an FLSS of t0's code "001101010".
	u := MustPatternFromString("····0101·")
	if !u.Matches(t0) {
		t.Error("u should match t0")
	}
	// V = "101······" is not an FLSS of t0.
	v := MustPatternFromString("101······")
	if v.Matches(t0) {
		t.Error("v should not match t0")
	}
	// FLSSeq example: U = "···0·1·1·" is an FLSSeq of "001001010", so its
	// distance to that code is 0 by Definition 4. (The paper's prose claims
	// 2 for this pair, which contradicts its own definition — an FLSSeq of
	// a code agrees with it at every effective position.)
	t0b := MustFromString("001001010")
	seq := MustPatternFromString("···0·1·1·")
	if d := seq.Distance(t0b); d != 0 {
		t.Errorf("distance to own FLSSeq = %d, want 0", d)
	}
	if !seq.Matches(t0b) {
		t.Error("a code must match its own FLSSeq")
	}
	// A genuinely differing code: flip effective positions 5 and 7.
	far := MustFromString("001000000")
	if d := seq.Distance(far); d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
}

func TestShared(t *testing.T) {
	a := MustFromString("001001010")
	b := MustFromString("001011101")
	p := Shared(a, b)
	// Positions where a and b agree: 0,1,2,3,5 -> values 0,0,1,0,1
	want := "0010·1···"
	if p.String() != want {
		t.Errorf("shared = %q want %q", p.String(), want)
	}
	if !p.Matches(a) || !p.Matches(b) {
		t.Error("shared must match both inputs")
	}
}

func TestSharedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(100)
		k := 2 + rng.Intn(5)
		codes := make([]Code, k)
		for j := range codes {
			codes[j] = Rand(rng, n)
		}
		p := Shared(codes...)
		for _, c := range codes {
			if !p.Matches(c) {
				t.Fatal("shared pattern must match every input")
			}
		}
		// Maximality: for every unfixed position some pair disagrees.
		for pos := 0; pos < n; pos++ {
			if p.Fixed(pos) {
				continue
			}
			agree := true
			for _, c := range codes[1:] {
				if c.Bit(pos) != codes[0].Bit(pos) {
					agree = false
					break
				}
			}
			if agree {
				t.Fatalf("position %d unfixed but all agree", pos)
			}
		}
	}
}

func TestSharedPattern(t *testing.T) {
	p := MustPatternFromString("0010·1···")
	q := MustPatternFromString("0·10·11··")
	s := SharedPattern(p, q)
	want := "0·10·1···"
	if s.String() != want {
		t.Errorf("sharedPattern = %q want %q", s.String(), want)
	}
	if !p.Contains(s) || !q.Contains(s) {
		t.Error("inputs must contain their shared pattern")
	}
}

func TestPatternDistance(t *testing.T) {
	p := MustPatternFromString("···0·1·1·")
	q := MustFromString("001100000")
	// Effective positions 3,5,7 hold 1,0,0 in q against 0,1,1 in p.
	if d := p.Distance(q); d != 3 {
		t.Errorf("distance = %d want 3", d)
	}
	if p.Matches(q) {
		t.Error("should not match at distance 3")
	}
}

func TestDistanceExcludingPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(100)
		a, b, ex := Rand(rng, n), Rand(rng, n), Rand(rng, n)
		p := PatternOf(a)
		want := 0
		for j := 0; j < n; j++ {
			if !ex.Bit(j) && a.Bit(j) != b.Bit(j) {
				want++
			}
		}
		if got := p.DistanceExcluding(b, ex); got != want {
			t.Fatalf("got %d want %d", got, want)
		}
	}
}

func TestCombineDistanceDecomposition(t *testing.T) {
	// Distance(child, q) == Distance(parent, q) + DistanceExcluding(child,
	// q, parent.mask) whenever parent ⊆ child — the invariant H-Search
	// relies on.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(100)
		a, b := Rand(rng, n), Rand(rng, n)
		child := Shared(a, b)
		c := Rand(rng, n)
		parent := SharedPattern(child, PatternOf(c))
		if !child.Contains(parent) {
			t.Fatal("parent must be contained in child")
		}
		q := Rand(rng, n)
		full := child.Distance(q)
		split := parent.Distance(q) + child.DistanceExcluding(q, parent.Mask())
		if full != split {
			t.Fatalf("decomposition broken: %d != %d", full, split)
		}
	}
}

func TestPatternKey(t *testing.T) {
	p := MustPatternFromString("01··")
	q := MustPatternFromString("01**") // same as p, different spelling
	if p.Key() != q.Key() {
		t.Error("equal patterns must share keys")
	}
	r := MustPatternFromString("010·")
	if p.Key() == r.Key() {
		t.Error("different patterns must not share keys")
	}
	// A pattern with value 0 at a fixed position differs from unfixed.
	s := MustPatternFromString("01·0")
	u := MustPatternFromString("01··")
	if s.Key() == u.Key() {
		t.Error("fixed-zero vs unfixed must differ")
	}
}

func TestEmptyAndFullPattern(t *testing.T) {
	e := EmptyPattern(9)
	if e.FixedCount() != 0 {
		t.Error("empty pattern has no fixed bits")
	}
	c := MustFromString("101010101")
	if e.Distance(c) != 0 {
		t.Error("empty pattern distance is 0")
	}
	f := PatternOf(c)
	if f.FixedCount() != 9 {
		t.Error("full pattern fixes all bits")
	}
	d := MustFromString("010101010")
	if f.Distance(d) != 9 {
		t.Error("full pattern distance equals code distance")
	}
}

func TestPatternAccessorsAndZero(t *testing.T) {
	var zero Pattern
	if !zero.IsZero() {
		t.Fatal("zero pattern should report IsZero")
	}
	p := MustPatternFromString("1·0")
	if p.IsZero() {
		t.Fatal("real pattern is not zero")
	}
	if p.Bits().String() != "100" {
		t.Fatalf("bits = %q", p.Bits().String())
	}
	if !p.Fixed(0) || p.Fixed(1) || !p.Fixed(2) || !p.Bit(0) || p.Bit(2) {
		t.Fatal("fixed or value positions wrong")
	}
	if p.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
	// Contains with value disagreement on a shared fixed position.
	q := MustPatternFromString("0··")
	if p.Contains(q) {
		t.Fatal("value conflict must fail containment")
	}
}

func TestMustPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustPatternFromString("01x")
}

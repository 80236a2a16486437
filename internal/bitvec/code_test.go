package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randCode(rng *rand.Rand, n int) Code { return Rand(rng, n) }

func TestFromStringRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "001001010", "101100010", "1111111111"}
	for _, s := range cases {
		c, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := c.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
		if c.Len() != len(s) {
			t.Errorf("Len(%q) = %d", s, c.Len())
		}
	}
}

func TestFromStringSpaces(t *testing.T) {
	c, err := FromString("001 001 010")
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "001001010" {
		t.Errorf("got %q", c.String())
	}
}

func TestFromStringErrors(t *testing.T) {
	for _, s := range []string{"", "012", "ab", " "} {
		if _, err := FromString(s); err == nil {
			t.Errorf("FromString(%q): expected error", s)
		}
	}
}

func TestFromUint64RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(64)
		v := rng.Uint64() & (^uint64(0) >> uint(64-n))
		c := FromUint64(v, n)
		if got := c.Uint64(); got != v {
			t.Fatalf("n=%d v=%x got %x", n, v, got)
		}
	}
}

func TestBitSetGet(t *testing.T) {
	c := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if c.Bit(i) {
			t.Fatalf("bit %d should start 0", i)
		}
		c.SetBit(i, true)
		if !c.Bit(i) {
			t.Fatalf("bit %d should be set", i)
		}
		c.SetBit(i, false)
		if c.Bit(i) {
			t.Fatalf("bit %d should be cleared", i)
		}
		c.FlipBit(i)
		if !c.Bit(i) {
			t.Fatalf("bit %d should be flipped on", i)
		}
		c.FlipBit(i)
	}
	if c.OnesCount() != 0 {
		t.Fatalf("count=%d", c.OnesCount())
	}
}

func TestDistanceBasics(t *testing.T) {
	a := MustFromString("101100010")
	b := MustFromString("001001010")
	if d := a.Distance(b); d != 3 {
		t.Errorf("distance = %d, want 3", d)
	}
	if d := a.Distance(a); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b, c := randCode(rng, n), randCode(rng, n), randCode(rng, n)
		// Symmetry, identity, triangle inequality, and the count of
		// differing bit positions.
		if a.Distance(b) != b.Distance(a) {
			return false
		}
		if a.Distance(a) != 0 {
			return false
		}
		if a.Distance(c) > a.Distance(b)+b.Distance(c) {
			return false
		}
		differ := 0
		for i := 0; i < n; i++ {
			if a.Bit(i) != b.Bit(i) {
				differ++
			}
		}
		return differ == a.Distance(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(150)
		a, b := randCode(rng, n), randCode(rng, n)
		h := rng.Intn(n + 1)
		d := a.Distance(b)
		got, ok := a.DistanceWithin(b, h)
		if ok != (d <= h) {
			t.Fatalf("within mismatch d=%d h=%d ok=%v", d, h, ok)
		}
		if ok && got != d {
			t.Fatalf("within distance %d want %d", got, d)
		}
	}
}

func TestDistanceExcluding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(150)
		a, b, ex := randCode(rng, n), randCode(rng, n), randCode(rng, n)
		want := 0
		for j := 0; j < n; j++ {
			if !ex.Bit(j) && a.Bit(j) != b.Bit(j) {
				want++
			}
		}
		if got := a.DistanceExcluding(b, ex); got != want {
			t.Fatalf("excluding = %d want %d", got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(150)
		a, b := randCode(rng, n), randCode(rng, n)
		want := 0
		as, bs := a.String(), b.String()
		switch {
		case as < bs:
			want = -1
		case as > bs:
			want = 1
		}
		if got := a.Compare(b); got != want {
			t.Fatalf("compare(%s,%s)=%d want %d", as, bs, got, want)
		}
	}
}

func TestSegment(t *testing.T) {
	c := MustFromString("101100010")
	if got := c.Segment(0, 3).String(); got != "101" {
		t.Errorf("seg0 = %q", got)
	}
	if got := c.Segment(3, 3).String(); got != "100" {
		t.Errorf("seg1 = %q", got)
	}
	if got := c.Segment(6, 3).String(); got != "010" {
		t.Errorf("seg2 = %q", got)
	}
	if got := c.Segment(2, 5).String(); got != "11000" {
		t.Errorf("seg mid = %q", got)
	}
}

func TestKeyUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seen := map[string]string{}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(100)
		c := randCode(rng, n)
		k := c.Key()
		if prev, ok := seen[k]; ok && prev != c.String() {
			t.Fatalf("key collision: %q vs %q", prev, c.String())
		}
		seen[k] = c.String()
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(200)
		c := randCode(rng, n)
		buf := c.AppendBytes(nil)
		if len(buf) != EncodedLen(n) {
			t.Fatalf("encoded len %d want %d", len(buf), EncodedLen(n))
		}
		d, used, err := CodeFromBytes(buf, n)
		if err != nil || used != len(buf) || !d.Equal(c) {
			t.Fatalf("roundtrip failed: %v used=%d equal=%v", err, used, d.Equal(c))
		}
	}
	if _, _, err := CodeFromBytes([]byte{1}, 64); err == nil {
		t.Error("expected short-buffer error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromString("1010")
	b := a.Clone()
	b.FlipBit(0)
	if a.Bit(0) != true || b.Bit(0) != false {
		t.Error("clone not independent")
	}
}

func TestRandClearsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(130)
		c := Rand(rng, n)
		w := c.Words()
		if r := uint(n % 64); r != 0 {
			if w[len(w)-1]&(^uint64(0)>>r) != 0 {
				t.Fatalf("tail bits set for n=%d", n)
			}
		}
	}
}

func TestZeroValueAndSize(t *testing.T) {
	var zero Code
	if !zero.IsZero() {
		t.Fatal("zero value should report IsZero")
	}
	c := MustFromString("1010")
	if c.IsZero() {
		t.Fatal("real code is not zero")
	}
	if c.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if MustFromString("10").Equal(MustFromString("100")) {
		t.Fatal("different lengths are not equal")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<=0")
		}
	}()
	New(0)
}

func TestUint64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64 bits")
		}
	}()
	New(65).Uint64()
}

func TestFromUint64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad length")
		}
	}()
	FromUint64(1, 65)
}

func TestMustFromStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFromString("10x")
}

func TestDistanceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFromString("10").Distance(MustFromString("100"))
}

func TestSegmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range segment")
		}
	}()
	MustFromString("1010").Segment(2, 5)
}

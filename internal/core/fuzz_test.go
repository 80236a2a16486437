package core

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
)

// staticSegKeyRef is the original per-bit extraction, kept as the reference
// the word-aligned staticSegKey must agree with.
func staticSegKeyRef(c bitvec.Code, from, width int) uint64 {
	words := c.Words()
	var v uint64
	for i := 0; i < width; i++ {
		bit := from + i
		v <<= 1
		v |= words[bit/64] >> uint(63-bit%64) & 1
	}
	return v
}

// TestStaticSegKeyEquivalence sweeps random codes, widths, and offsets —
// including word-boundary-straddling segments — against the per-bit
// reference.
func TestStaticSegKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{9, 32, 63, 64, 65, 100, 127, 128, 200} {
		for trial := 0; trial < 50; trial++ {
			c := bitvec.Rand(rng, n)
			for width := 1; width <= 64 && width <= n; width += 1 + trial%5 {
				from := rng.Intn(n - width + 1)
				if got, want := staticSegKey(c, from, width), staticSegKeyRef(c, from, width); got != want {
					t.Fatalf("n=%d from=%d width=%d: got %#x want %#x (code %s)", n, from, width, got, want, c)
				}
			}
		}
	}
}

// FuzzStaticSegKey: the word-aligned extraction must agree with the per-bit
// reference on arbitrary codes and segment geometries.
func FuzzStaticSegKey(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, uint16(3), uint8(7))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x12, 0x34, 0x56, 0x78, 0x9a}, uint16(60), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, fromRaw uint16, widthRaw uint8) {
		if len(data) == 0 {
			return
		}
		n := len(data) * 8
		if n > 512 {
			n = 512
		}
		c := bitvec.New(n)
		for i := 0; i < n; i++ {
			if data[i/8]&(1<<uint(7-i%8)) != 0 {
				c.SetBit(i, true)
			}
		}
		width := int(widthRaw)%64 + 1
		if width > n {
			width = n
		}
		from := int(fromRaw) % (n - width + 1)
		if got, want := staticSegKey(c, from, width), staticSegKeyRef(c, from, width); got != want {
			t.Fatalf("n=%d from=%d width=%d: got %#x want %#x", n, from, width, got, want)
		}
	})
}

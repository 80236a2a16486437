// Package bitvec implements fixed-length binary codes and masked bit
// patterns, the primitive data types of the HA-Index.
//
// A Code is a fixed-length string of 0s and 1s produced by a similarity hash
// function. Hamming distance between two codes is an XOR followed by a
// population count. A Pattern is a partially-specified code — a fixed-length
// subsequence (FLSSeq) in the paper's terminology — with a mask identifying
// the fixed bit positions; distances against a pattern count differing bits
// only at fixed positions.
//
// Bit addressing: bit 0 is the leftmost (most significant) bit of the code
// string. Bit i is stored in word i/64 at shift 63-(i%64), so comparing the
// word slices lexicographically compares the code strings lexicographically.
package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Code is a fixed-length binary code.
type Code struct {
	words []uint64
	n     int
}

// wordsFor returns the number of 64-bit words needed for n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// New returns an all-zero code of n bits. It panics if n <= 0.
func New(n int) Code {
	if n <= 0 {
		panic(fmt.Sprintf("bitvec: invalid code length %d", n))
	}
	return Code{words: make([]uint64, wordsFor(n)), n: n}
}

// FromString parses a code from a string of '0' and '1' runes. Spaces are
// ignored so paper-style codes such as "001 001 010" parse directly.
func FromString(s string) (Code, error) {
	s = strings.ReplaceAll(s, " ", "")
	if len(s) == 0 {
		return Code{}, fmt.Errorf("bitvec: empty code string")
	}
	c := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			c.SetBit(i, true)
		default:
			return Code{}, fmt.Errorf("bitvec: invalid rune %q at position %d", r, i)
		}
	}
	return c, nil
}

// MustFromString is FromString but panics on error; intended for tests and
// examples with literal codes.
func MustFromString(s string) Code {
	c, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return c
}

// FromUint64 returns an n-bit code whose bits are the n low bits of v, most
// significant first. It panics if n is not in [1, 64].
func FromUint64(v uint64, n int) Code {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("bitvec: FromUint64 length %d out of range", n))
	}
	c := New(n)
	c.words[0] = v << (64 - uint(n))
	return c
}

// Uint64 returns the code's bits as the low bits of a uint64, most
// significant bit of the code first. It panics if the code is longer than 64
// bits.
func (c Code) Uint64() uint64 {
	if c.n > 64 {
		panic(fmt.Sprintf("bitvec: Uint64 on %d-bit code", c.n))
	}
	return c.words[0] >> (64 - uint(c.n))
}

// Rand returns a uniformly random n-bit code drawn from rng.
func Rand(rng *rand.Rand, n int) Code {
	c := New(n)
	for i := range c.words {
		c.words[i] = rng.Uint64()
	}
	c.clearTail()
	return c
}

// clearTail zeroes the unused trailing bits of the last word.
func (c Code) clearTail() {
	if r := uint(c.n % 64); r != 0 {
		c.words[len(c.words)-1] &= ^uint64(0) << (64 - r)
	}
}

// Len returns the code length in bits.
func (c Code) Len() int { return c.n }

// IsZero reports whether c is the zero value (no storage), as opposed to a
// valid all-zero code.
func (c Code) IsZero() bool { return c.words == nil }

// Bit returns bit i (0 = leftmost).
func (c Code) Bit(i int) bool {
	return c.words[i/64]&(1<<uint(63-i%64)) != 0
}

// SetBit sets bit i (0 = leftmost) to v, in place.
func (c Code) SetBit(i int, v bool) {
	m := uint64(1) << uint(63-i%64)
	if v {
		c.words[i/64] |= m
	} else {
		c.words[i/64] &^= m
	}
}

// FlipBit inverts bit i in place.
func (c Code) FlipBit(i int) {
	c.words[i/64] ^= 1 << uint(63-i%64)
}

// Clone returns a deep copy of c.
func (c Code) Clone() Code {
	w := make([]uint64, len(c.words))
	copy(w, c.words)
	return Code{words: w, n: c.n}
}

// Equal reports whether c and d have the same length and bits.
func (c Code) Equal(d Code) bool {
	if c.n != d.n {
		return false
	}
	for i, w := range c.words {
		if w != d.words[i] {
			return false
		}
	}
	return true
}

// Compare orders codes lexicographically by their bit strings (equivalently,
// as unsigned big-endian integers). It returns -1, 0, or +1.
func (c Code) Compare(d Code) int {
	for i := range c.words {
		switch {
		case c.words[i] < d.words[i]:
			return -1
		case c.words[i] > d.words[i]:
			return 1
		}
	}
	return 0
}

// Distance returns the Hamming distance between c and d: the number of bit
// positions at which they differ. It panics if the lengths differ.
func (c Code) Distance(d Code) int {
	if c.n != d.n {
		panic(fmt.Sprintf("bitvec: distance between %d-bit and %d-bit codes", c.n, d.n))
	}
	sum := 0
	for i, w := range c.words {
		sum += bits.OnesCount64(w ^ d.words[i])
	}
	return sum
}

// DistanceWithin returns (distance, true) if the Hamming distance between c
// and d is at most h, and (d', false) with d' > h otherwise. It short-circuits
// once the running count exceeds h, which matters for long codes.
func (c Code) DistanceWithin(d Code, h int) (int, bool) {
	sum := 0
	for i, w := range c.words {
		sum += bits.OnesCount64(w ^ d.words[i])
		if sum > h {
			return sum, false
		}
	}
	return sum, true
}

// DistanceExcluding returns the Hamming distance between c and d counted
// only at positions NOT set in the exclude mask. H-Search uses it to charge
// each bit of a leaf code exactly once along an index path.
func (c Code) DistanceExcluding(d, exclude Code) int {
	sum := 0
	ew := exclude.words
	for i, w := range c.words {
		sum += bits.OnesCount64((w ^ d.words[i]) &^ ew[i])
	}
	return sum
}

// OnesCount returns the number of 1 bits in c.
func (c Code) OnesCount() int {
	sum := 0
	for _, w := range c.words {
		sum += bits.OnesCount64(w)
	}
	return sum
}

// Segment extracts bits [from, from+width) as a new width-bit code.
func (c Code) Segment(from, width int) Code {
	if from < 0 || width <= 0 || from+width > c.n {
		panic(fmt.Sprintf("bitvec: segment [%d,%d) of %d-bit code", from, from+width, c.n))
	}
	out := New(width)
	for i := 0; i < width; i++ {
		if c.Bit(from + i) {
			out.SetBit(i, true)
		}
	}
	return out
}

// String renders the code as a string of '0' and '1'.
func (c Code) String() string {
	var b strings.Builder
	b.Grow(c.n)
	for i := 0; i < c.n; i++ {
		if c.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Key returns a compact string usable as a map key. Unlike String it is not
// human-readable; it is the raw words plus the length.
func (c Code) Key() string {
	var b strings.Builder
	b.Grow(len(c.words)*8 + 1)
	for _, w := range c.words {
		for s := 56; s >= 0; s -= 8 {
			b.WriteByte(byte(w >> uint(s)))
		}
	}
	b.WriteByte(byte(c.n))
	return b.String()
}

// AppendBytes appends a fixed-width binary encoding of c to dst and returns
// the extended slice. Decode with CodeFromBytes using the same bit length.
func (c Code) AppendBytes(dst []byte) []byte {
	for _, w := range c.words {
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(w>>uint(s)))
		}
	}
	return dst
}

// EncodedLen returns the byte length of the AppendBytes encoding of an n-bit
// code.
func EncodedLen(n int) int { return wordsFor(n) * 8 }

// CodeFromBytes decodes an n-bit code previously encoded with AppendBytes.
// It returns the code and the number of bytes consumed.
func CodeFromBytes(src []byte, n int) (Code, int, error) {
	need := EncodedLen(n)
	if len(src) < need {
		return Code{}, 0, fmt.Errorf("bitvec: short buffer: need %d bytes, have %d", need, len(src))
	}
	c := New(n)
	for i := range c.words {
		var w uint64
		for j := 0; j < 8; j++ {
			w = w<<8 | uint64(src[i*8+j])
		}
		c.words[i] = w
	}
	return c, need, nil
}

// Words exposes the underlying words (read-only by convention); used by
// size accounting and the gray package.
func (c Code) Words() []uint64 { return c.words }

// FromWordsShared wraps an existing word slice as an n-bit code WITHOUT
// copying: the code aliases words, which may be storage the caller must not
// write to, such as a read-only mmap'd arena. The frozen HA-Index reads its
// codes, packed in one slab, through it. The bits beyond n in the last word
// are assumed already clear (true for any slab written from Code.Words());
// they are NOT cleared here, so a caller aliasing untrusted bytes gets
// whatever tail bits the slab holds, consistently across every aliasing path.
func FromWordsShared(words []uint64, n int) Code {
	if n <= 0 || len(words) != wordsFor(n) {
		panic(fmt.Sprintf("bitvec: FromWordsShared %d words for %d bits", len(words), n))
	}
	return Code{words: words, n: n}
}

// SizeBytes returns the in-memory footprint of the code's bit storage.
func (c Code) SizeBytes() int { return len(c.words)*8 + 16 /* slice header */ + 8 /* n */ }

package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Pattern is a partially specified binary code: a fixed-length subsequence
// (FLSSeq) in the paper's terminology. mask has a 1 at every fixed position;
// bits holds the value at fixed positions and is 0 elsewhere. A fixed-length
// substring (FLSS) is simply a Pattern whose fixed positions are contiguous.
type Pattern struct {
	mask Code
	bits Code
}

// PatternOf returns the fully-specified pattern of a code (every position
// fixed).
func PatternOf(c Code) Pattern {
	m := New(c.n)
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	m.clearTail()
	return Pattern{mask: m, bits: c.Clone()}
}

// EmptyPattern returns a pattern of n bits with no fixed positions.
func EmptyPattern(n int) Pattern {
	return Pattern{mask: New(n), bits: New(n)}
}

// PatternFromString parses a paper-style pattern where '·', '.' and '*'
// denote unfixed positions, e.g. "···0·010".
func PatternFromString(s string) (Pattern, error) {
	s = strings.ReplaceAll(s, " ", "")
	rs := []rune(s)
	if len(rs) == 0 {
		return Pattern{}, fmt.Errorf("bitvec: empty pattern string")
	}
	p := EmptyPattern(len(rs))
	for i, r := range rs {
		switch r {
		case '0':
			p.mask.SetBit(i, true)
		case '1':
			p.mask.SetBit(i, true)
			p.bits.SetBit(i, true)
		case '.', '*', '·':
			// unfixed
		default:
			return Pattern{}, fmt.Errorf("bitvec: invalid pattern rune %q at %d", r, i)
		}
	}
	return p, nil
}

// MustPatternFromString is PatternFromString but panics on error.
func MustPatternFromString(s string) Pattern {
	p, err := PatternFromString(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Shared returns the maximal pattern common to all the given codes: the
// positions at which every code agrees, with the shared value. This is the
// extractFLSSeq primitive of Algorithm 1 (H-Build). It panics if codes is
// empty or lengths differ.
func Shared(codes ...Code) Pattern {
	if len(codes) == 0 {
		panic("bitvec: Shared of no codes")
	}
	n := codes[0].n
	mask := New(n)
	for i := range mask.words {
		mask.words[i] = ^uint64(0)
	}
	mask.clearTail()
	first := codes[0]
	for _, c := range codes[1:] {
		if c.n != n {
			panic("bitvec: Shared over mixed code lengths")
		}
		for i := range mask.words {
			mask.words[i] &^= first.words[i] ^ c.words[i]
		}
	}
	b := New(n)
	for i := range b.words {
		b.words[i] = first.words[i] & mask.words[i]
	}
	return Pattern{mask: mask, bits: b}
}

// SharedPattern returns the maximal pattern common to two patterns: positions
// fixed in both with equal values. Used when consolidating index nodes.
func SharedPattern(p, q Pattern) Pattern {
	n := p.Len()
	mask := New(n)
	b := New(n)
	for i := range mask.words {
		agree := ^(p.bits.words[i] ^ q.bits.words[i])
		mask.words[i] = p.mask.words[i] & q.mask.words[i] & agree
		b.words[i] = p.bits.words[i] & mask.words[i]
	}
	return Pattern{mask: mask, bits: b}
}

// Len returns the pattern length in bits.
func (p Pattern) Len() int { return p.mask.n }

// IsZero reports whether p is the zero value.
func (p Pattern) IsZero() bool { return p.mask.words == nil }

// FixedCount returns the number of fixed positions.
func (p Pattern) FixedCount() int { return p.mask.OnesCount() }

// Fixed reports whether position i is fixed.
func (p Pattern) Fixed(i int) bool { return p.mask.Bit(i) }

// Bit returns the value at position i; meaningful only when Fixed(i).
func (p Pattern) Bit(i int) bool { return p.bits.Bit(i) }

// Mask returns the pattern's fixed-position mask code.
func (p Pattern) Mask() Code { return p.mask }

// Bits returns the pattern's value code (zero at unfixed positions).
func (p Pattern) Bits() Code { return p.bits }

// Distance returns the Hamming distance between the pattern and a code,
// counted only at the pattern's fixed positions (the paper's distance to an
// FLSSeq).
func (p Pattern) Distance(c Code) int {
	sum := 0
	for i, w := range p.bits.words {
		sum += bits.OnesCount64((w ^ c.words[i]) & p.mask.words[i])
	}
	return sum
}

// DistanceExcluding returns the distance between the pattern and a code at
// the fixed positions NOT covered by the exclude mask. H-Search uses this to
// charge each bit position exactly once along an index path.
func (p Pattern) DistanceExcluding(c Code, exclude Code) int {
	sum := 0
	for i, w := range p.bits.words {
		sum += bits.OnesCount64((w ^ c.words[i]) & p.mask.words[i] &^ exclude.words[i])
	}
	return sum
}

// Matches reports whether code c agrees with the pattern at every fixed
// position (the bitmatch test of Algorithm 2).
func (p Pattern) Matches(c Code) bool {
	for i, w := range p.bits.words {
		if (w^c.words[i])&p.mask.words[i] != 0 {
			return false
		}
	}
	return true
}

// Contains reports whether pattern q is a sub-pattern of p: every position
// fixed by q is fixed by p with the same value.
func (p Pattern) Contains(q Pattern) bool {
	for i := range p.mask.words {
		if q.mask.words[i]&^p.mask.words[i] != 0 {
			return false
		}
		if (p.bits.words[i]^q.bits.words[i])&q.mask.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two patterns fix the same positions with the same
// values.
func (p Pattern) Equal(q Pattern) bool {
	return p.mask.Equal(q.mask) && p.bits.Equal(q.bits)
}

// Key returns a compact string usable as a map key for node consolidation.
func (p Pattern) Key() string { return p.mask.Key() + p.bits.Key() }

// String renders the pattern paper-style, with '·' at unfixed positions.
func (p Pattern) String() string {
	var b strings.Builder
	for i := 0; i < p.Len(); i++ {
		switch {
		case !p.mask.Bit(i):
			b.WriteRune('·')
		case p.bits.Bit(i):
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SizeBytes returns the approximate in-memory footprint of the pattern.
func (p Pattern) SizeBytes() int { return p.mask.SizeBytes() + p.bits.SizeBytes() }

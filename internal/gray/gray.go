// Package gray implements binary-reflected Gray codes over fixed-length
// binary codes of arbitrary width.
//
// Definition 5 of the paper orders binary codes by their position in the
// reflected Gray sequence: consecutive codewords in that sequence differ in
// exactly one bit, so sorting a dataset's codes by Gray rank clusters codes
// with small mutual Hamming distance (Proposition 2), which is what makes the
// sliding-window FLSSeq extraction of H-Build productive.
package gray

import (
	"cmp"
	"math/bits"
	"slices"

	"haindex/internal/bitvec"
)

// Rank interprets code g as a reflected-Gray codeword and returns its rank in
// the Gray sequence as a binary code of the same width: the inverse Gray
// transform b[i] = g[0] XOR ... XOR g[i] (prefix parity, bit 0 leftmost).
func Rank(g bitvec.Code) bitvec.Code {
	out := bitvec.New(g.Len())
	rankWords(out.Words(), g.Words(), g.Len())
	return out
}

// rankWords is Rank over raw words: dst receives the rank of the length-bit
// codeword src, whose unused tail bits must be zero.
func rankWords(dst, src []uint64, length int) {
	carry := uint64(0) // 0 or all-ones: parity of all bits above this word
	for i, w := range src {
		// In-word prefix XOR from the MSB down.
		x := w
		x ^= x >> 1
		x ^= x >> 2
		x ^= x >> 4
		x ^= x >> 8
		x ^= x >> 16
		x ^= x >> 32
		x ^= carry
		dst[i] = x
		carry = -(x & 1)
	}
	// The tail of src is zero, so the tail of the rank is a constant run equal
	// to the last meaningful parity; clear it for canonical form.
	if r := uint(length % 64); r != 0 {
		dst[len(dst)-1] &= ^uint64(0) << (64 - r)
	}
}

// FromRank is the inverse of Rank: it returns the Gray codeword at binary
// rank b, using g[i] = b[i] XOR b[i-1] with b[-1] = 0.
func FromRank(b bitvec.Code) bitvec.Code {
	out := bitvec.New(b.Len())
	bw := b.Words()
	ow := out.Words()
	prev := uint64(0) // b's bit immediately above the current word (0 or 1)
	for i, w := range bw {
		ow[i] = w ^ (w >> 1) ^ (prev << 63)
		prev = w & 1
	}
	clearTail(out)
	return out
}

func clearTail(c bitvec.Code) {
	if r := uint(c.Len() % 64); r != 0 {
		w := c.Words()
		w[len(w)-1] &= ^uint64(0) << (64 - r)
	}
}

// Compare orders two equal-length codes by Gray rank without materializing
// the ranks. The Gray rank order at the first differing bit position depends
// on the parity of the shared prefix: even parity preserves bit order, odd
// parity reverses it.
func Compare(a, b bitvec.Code) int { return compareWords(a.Words(), b.Words()) }

// compareWords is Compare over raw words.
func compareWords(aw, bw []uint64) int {
	parity := 0
	for i := range aw {
		x := aw[i] ^ bw[i]
		if x == 0 {
			parity ^= bits.OnesCount64(aw[i]) & 1
			continue
		}
		lead := bits.LeadingZeros64(x)
		// Parity of the shared prefix: previous words plus this word's bits
		// above the first difference.
		p := parity ^ (bits.OnesCount64(aw[i]>>(64-uint(lead))<<(64-uint(lead))) & 1)
		aBit := aw[i]>>(63-uint(lead))&1 == 1
		less := !aBit // even prefix parity: 0 ranks before 1
		if p == 1 {
			less = aBit
		}
		if less {
			return -1
		}
		return 1
	}
	return 0
}

// Sort sorts codes in nondecreasing Gray-rank order in place, carrying along
// the parallel ids slice when it is non-nil. The sort is stable, and works on
// one flat slab of ranks: no per-code allocation, no reflection. Codes already
// in order cost one pass.
func Sort(codes []bitvec.Code, ids []int) {
	if ids != nil && len(ids) != len(codes) {
		panic("gray: ids length mismatch")
	}
	if IsSorted(codes) {
		return
	}
	nw := len(codes[0].Words())
	ranks := make([]uint64, len(codes)*nw)
	for i, c := range codes {
		rankWords(ranks[i*nw:(i+1)*nw], c.Words(), c.Len())
	}
	if ids == nil {
		ids = make([]int, len(codes)) // carried and dropped: one loop below, not two
	}
	// Permute in place, a cycle at a time: a scratch copy of the code headers
	// is pointer-bearing memory the collector would have to zero and scan.
	ps := order(ranks, nw)
	for i := range ps {
		if ps[i].at < 0 {
			continue // placed by an earlier cycle
		}
		c, id := codes[i], ids[i]
		j := i
		for k := ps[j].at; k != i; k = ps[j].at {
			ps[j].at = -1
			codes[j], ids[j] = codes[k], ids[k]
			j = k
		}
		ps[j].at = -1
		codes[j], ids[j] = c, id
	}
}

// SortRows is Sort over a tuple slab: rows holds one length-bit code after
// another, (length+63)/64 words each with the unused tail bits zero, and
// ids[i], when ids is non-nil, travels with row i. With lex set the rows are
// ordered as unsigned big-endian integers instead — no rank transform, the
// order of H-Build's LexOrder ablation. Stable in both orders; a slab already
// in order — every chunk a pre-sorted partition streams — costs one pass and
// no allocation.
func SortRows(length int, rows []uint64, ids []int, lex bool) {
	nw := (length + 63) / 64
	if length <= 0 || len(rows)%nw != 0 || (ids != nil && len(ids) != len(rows)/nw) {
		panic("gray: slab shape mismatch")
	}
	compare := compareWords
	if lex {
		compare = slices.Compare[[]uint64]
	}
	inOrder := true
	for at := nw; at < len(rows) && inOrder; at += nw {
		inOrder = compare(rows[at-nw:at], rows[at:at+nw]) <= 0
	}
	if inOrder {
		return
	}
	keys := rows
	if !lex {
		keys = make([]uint64, len(rows))
		for at := 0; at < len(rows); at += nw {
			rankWords(keys[at:at+nw], rows[at:at+nw], length)
		}
	}
	ps := order(keys, nw)
	gather(rows, ps, nw)
	if ids != nil {
		gather(ids, ps, 1)
	}
}

// pair is one sort element: a key's first word beside the key's input
// position, so a radix pass moves both and never goes back to the key slab.
type pair struct {
	key uint64
	at  int
}

// order returns the stable ascending order of the nw-word keys packed in
// keys, compared word by word as unsigned integers: element i of the result
// names the input position of the i-th smallest key. One byte-wise LSD radix
// sort over the (first word, position) pairs — a byte every key agrees on
// costs no pass, so short codes pay for their own width only — and then, for
// wider keys, a comparison sort over the later words inside each run of equal
// first words.
func order(keys []uint64, nw int) []pair {
	n := len(keys) / nw
	buf := make([]pair, 2*n)
	ps, tmp := buf[:n], buf[n:]
	var count [8][256]int
	for i := range ps {
		k := keys[i*nw]
		ps[i] = pair{k, i}
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	for b := range count {
		c := &count[b]
		if c[byte(ps[0].key>>(8*b))] == n {
			continue
		}
		sum := 0
		for v, k := range c {
			c[v], sum = sum, sum+k
		}
		for _, p := range ps {
			d := byte(p.key >> (8 * b))
			tmp[c[d]] = p
			c[d]++
		}
		ps, tmp = tmp, ps
	}
	if nw == 1 {
		return ps
	}
	later := func(a, b pair) int {
		if c := slices.Compare(keys[a.at*nw+1:(a.at+1)*nw], keys[b.at*nw+1:(b.at+1)*nw]); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ps[hi].key == ps[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ps[lo:hi], later)
		}
		lo = hi
	}
	return ps
}

// gather permutes s, whose elements are stride values each, into the order ps
// names.
func gather[T any](s []T, ps []pair, stride int) {
	src := append([]T(nil), s...)
	for i, p := range ps {
		copy(s[i*stride:(i+1)*stride], src[p.at*stride:])
	}
}

// IsSorted reports whether codes are in nondecreasing Gray-rank order.
func IsSorted(codes []bitvec.Code) bool {
	for i := 1; i < len(codes); i++ {
		if Compare(codes[i-1], codes[i]) > 0 {
			return false
		}
	}
	return true
}

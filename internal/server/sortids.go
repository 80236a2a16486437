package server

import "slices"

// radixMin is the length from which sortIDs runs the radix passes; under it
// the counting tables cost more than a comparison sort of the ids.
const radixMin = 64

// sortIDs sorts ids ascending in time linear in their number: a
// least-significant-digit radix sort, a byte a pass, over the bits in which
// the ids differ — a shard's ids share their high bits, so that is two or
// three passes, and a byte all ids agree on is skipped. Fewer than radixMin
// ids, or any negative one, go to slices.Sort. scratch is the passes' second
// buffer, grown as needed and returned for the next call.
func sortIDs(ids, scratch []int) []int {
	if len(ids) < radixMin {
		slices.Sort(ids)
		return scratch
	}
	var differ, sign int
	for _, id := range ids {
		differ |= id ^ ids[0]
		sign |= id
	}
	if sign < 0 {
		slices.Sort(ids)
		return scratch
	}
	if cap(scratch) < len(ids) {
		scratch = make([]int, len(ids))
	}
	src, dst := ids, scratch[:len(ids)]
	for shift := 0; differ>>shift != 0; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, id := range src {
			next[id>>shift&0xff]++
		}
		at := 0
		for d, n := range next {
			next[d] = at
			at += n
		}
		for _, id := range src {
			d := id >> shift & 0xff
			dst[next[d]] = id
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
	return scratch
}

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"unsafe"
)

// HADX v4 — the index file format: the mmap-native frozen arena layout. It is
// the only one; an image carrying any other version is refused by name.
//
// Every integer in v4 is fixed-width little-endian and every array sits at an
// 8-byte-aligned offset, so a mapped file can be aliased in place: the word
// slabs become []uint64 and the CSR arrays []int32 views straight into the
// page cache, with no decode pass and no heap copy. A section table up front
// carries the (offset, byte-size) of each array; hostile-input validation
// runs on that table and on the small structural int32 arrays (bounds,
// monotonicity, level order), never on the big word slabs — any bit pattern
// in a code or residual word is a valid code, so the walks cannot be driven
// out of bounds by slab contents.
//
// Layout (byte offsets):
//
//	0   magic "HADX"
//	4   version byte 0x04, then 3 zero pad bytes
//	8   9 × uint64: length L, flags (bit0 ids present), n (tuple count),
//	    nGroups, nNodes, nRoots, nChild, nLeaf, nTop
//	80  uint64 section count (11)
//	88  11 × {uint64 offset, uint64 bytes} section table
//	264 sections, ascending, each 8-aligned and tightly packed (≤7 pad
//	    bytes between consecutive sections, ≤7 trailing):
//	      rootIDs    nRoots  × int32   (ascending node ids)
//	      topLeaves  nTop    × int32
//	      childStart nNodes+1 × int32  (CSR prefix)
//	      childList  nChild  × int32
//	      leafStart  nNodes+1 × int32  (CSR prefix)
//	      leafList   nLeaf   × int32
//	      idStart    nGroups+1 × int32 (CSR prefix)
//	      codeSlab   nGroups*nw × uint64
//	      idSlab     n × int64
//	      resSlab    nNodes*2*nw × uint64
//	      maskSlab   nNodes*nw × uint64
const (
	codecMagic        = "HADX"
	codecVersionArena = 4

	arenaSectionCount = 11
	arenaHeaderSize   = 8 + 9*8 + 8 + arenaSectionCount*16 // = 264, 8-aligned
)

// Section indexes in layout order.
const (
	secRoots = iota
	secTop
	secChildStart
	secChildList
	secLeafStart
	secLeafList
	secIDStart
	secCodeSlab
	secIDSlab
	secResSlab
	secMaskSlab
)

// canAliasArena reports whether this host can view little-endian v4 bytes in
// place: it must be little-endian with 64-bit ints (so []int aliases the
// int64 id slab). Anything else falls back to the copying decode.
var canAliasArena = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1 && strconv.IntSize == 64
}()

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

// arenaCounts is the v4 fixed header after the magic/version.
type arenaCounts struct {
	length, flags, n                             uint64
	nGroups, nNodes, nRoots, nChild, nLeaf, nTop uint64
}

// sectionSizes returns the exact byte size of each section for these counts.
func (c arenaCounts) sectionSizes() [arenaSectionCount]uint64 {
	nw := (c.length + 63) / 64
	return [arenaSectionCount]uint64{
		secRoots:      4 * c.nRoots,
		secTop:        4 * c.nTop,
		secChildStart: 4 * (c.nNodes + 1),
		secChildList:  4 * c.nChild,
		secLeafStart:  4 * (c.nNodes + 1),
		secLeafList:   4 * c.nLeaf,
		secIDStart:    4 * (c.nGroups + 1),
		secCodeSlab:   8 * c.nGroups * nw,
		secIDSlab:     8 * c.n,
		secResSlab:    8 * c.nNodes * 2 * nw,
		secMaskSlab:   8 * c.nNodes * nw,
	}
}

// sectionTable lays the sections out tightly after the header: each offset is
// the 8-byte alignment of the previous end. It returns the table and the
// total file size.
func (c arenaCounts) sectionTable() ([arenaSectionCount][2]uint64, uint64) {
	sizes := c.sectionSizes()
	var table [arenaSectionCount][2]uint64
	cur := uint64(arenaHeaderSize)
	for i, sz := range sizes {
		table[i] = [2]uint64{cur, sz}
		cur = align8(cur + sz)
	}
	return table, cur
}

// counts returns the header counts of f's v4 image, with or without the id
// tables.
func (f *FrozenIndex) counts(withIDs bool) arenaCounts {
	c := arenaCounts{
		length:  uint64(f.length),
		nGroups: uint64(f.GroupCount()),
		nNodes:  uint64(f.NodeCount()),
		nRoots:  uint64(len(f.rootIDs)),
		nChild:  uint64(len(f.childList)),
		nLeaf:   uint64(len(f.leafList)),
		nTop:    uint64(len(f.topLeaves)),
	}
	if withIDs {
		c.flags, c.n = 1, uint64(len(f.idSlab))
	}
	return c
}

// write writes the v4 image these counts lay out onto w: the header and the
// section table, then every section at its offset, the pad before it written
// here and its bytes by body(sec, w) — exactly the table's size for it. It is
// the one header writer: EncodeArena and the forest writer both go through it.
func (c arenaCounts) write(w io.Writer, body func(sec int, w io.Writer) error) error {
	table, _ := c.sectionTable()
	hdr := make([]byte, 0, arenaHeaderSize)
	hdr = append(hdr, codecMagic...)
	hdr = append(hdr, codecVersionArena, 0, 0, 0)
	for _, v := range []uint64{c.length, c.flags, c.n, c.nGroups, c.nNodes, c.nRoots, c.nChild, c.nLeaf, c.nTop, arenaSectionCount} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	for _, s := range table {
		hdr = binary.LittleEndian.AppendUint64(hdr, s[0])
		hdr = binary.LittleEndian.AppendUint64(hdr, s[1])
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(hdr) // a bufio.Writer's error sticks: the body's writes and Flush report it
	end := uint64(arenaHeaderSize)
	var pad [8]byte
	for sec, s := range table {
		bw.Write(pad[:s[0]-end])
		if err := body(sec, bw); err != nil {
			return err
		}
		end = s[0] + s[1]
	}
	return bw.Flush()
}

// putSection writes section sec of f's arenas onto w with every reference
// shifted by base's totals: node ids by its nodes, group ids by its groups,
// and the child, leaf and id prefixes by its children, leaves and ids. With a
// zero base that is f's own image; with the totals of the arenas laid before
// it, f's part of their forest, whose prefix arrays the next part continues —
// so a part leaves off their closing sentinels (sentinel false). This is the
// one copy of the offset arithmetic.
func (f *FrozenIndex) putSection(w io.Writer, sec int, base arenaCounts, sentinel bool) error {
	nn, ng := f.NodeCount(), f.GroupCount()
	if sentinel {
		nn, ng = nn+1, ng+1
	}
	switch sec {
	case secRoots:
		return putInt32s(w, f.rootIDs, int32(base.nNodes))
	case secTop:
		return putInt32s(w, f.topLeaves, int32(base.nGroups))
	case secChildStart:
		return putInt32s(w, f.childStart[:nn], int32(base.nChild))
	case secChildList:
		return putInt32s(w, f.childList, int32(base.nNodes))
	case secLeafStart:
		return putInt32s(w, f.leafStart[:nn], int32(base.nLeaf))
	case secLeafList:
		return putInt32s(w, f.leafList, int32(base.nGroups))
	case secIDStart:
		return putInt32s(w, f.idStart[:ng], int32(base.n))
	case secCodeSlab:
		return putWords(w, f.codeSlab)
	case secIDSlab:
		return putWords(w, f.idSlab)
	case secResSlab:
		return putWords(w, f.resSlab)
	}
	return putWords(w, f.maskSlab)
}

// putInt32s writes vals, each plus off, as little-endian int32s, and putWords
// writes code words or ids as little-endian 64-bit words: the slab writers of
// every image, a buffer of them at a time.
func putInt32s(w io.Writer, vals []int32, off int32) error {
	var buf [4096]byte
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v+off))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func putWords[T uint64 | int](w io.Writer, vals []T) error {
	var buf [4096]byte
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// EncodeArena writes the index in the HADX v4 mmap-native layout. With
// withIDs=false the id tables are zeroed (the leafless broadcast form).
func (f *FrozenIndex) EncodeArena(w io.Writer, withIDs bool) error {
	c := f.counts(withIDs)
	if !withIDs {
		leafless := *f
		leafless.idStart, leafless.idSlab = make([]int32, c.nGroups+1), nil
		f = &leafless
	}
	return c.write(w, func(sec int, w io.Writer) error { return f.putSection(w, sec, arenaCounts{}, true) })
}

// EncodedSizeArena returns the exact v4 file size without encoding: the bytes
// EncodeArena writes, and what a broadcast of the index ships.
func (f *FrozenIndex) EncodedSizeArena(withIDs bool) int {
	_, total := f.counts(withIDs).sectionTable()
	return int(total)
}

// DecodeArenaBytes parses a complete v4 arena image. The returned index's
// slabs alias data, so the caller must keep data immutable and alive for the
// index's lifetime: MapFrozen hands it an mmap'd region, the eager loads a
// buffer they read the file into and keep no other reference to. Only a host
// that cannot view the little-endian layout in place (canAliasArena), or an
// image that does not start 8-aligned, so that its slabs would not sit at
// their natural alignment, has every array copied onto the heap.
//
// Corrupt input — truncated, misaligned, overlapping or mis-sized sections,
// out-of-range or out-of-level-order references — returns an error, never
// panics. The word slabs themselves are not validated: every bit pattern is a
// legal code/residual, so they cannot make a walk misbehave.
func DecodeArenaBytes(data []byte) (*FrozenIndex, error) {
	if len(data) > 4 && string(data[:4]) == codecMagic && data[4] != codecVersionArena {
		return nil, fmt.Errorf("core: unsupported index version %d (this build reads version %d)", data[4], codecVersionArena)
	}
	if len(data) < arenaHeaderSize {
		return nil, fmt.Errorf("core: arena truncated: %d bytes < %d header", len(data), arenaHeaderSize)
	}
	if string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("core: bad arena magic %q", data[:4])
	}
	if data[4] != codecVersionArena || data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("core: bad arena version bytes % x", data[4:8])
	}
	u64at := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	c := arenaCounts{
		length: u64at(8), flags: u64at(16), n: u64at(24),
		nGroups: u64at(32), nNodes: u64at(40), nRoots: u64at(48),
		nChild: u64at(56), nLeaf: u64at(64), nTop: u64at(72),
	}
	if u64at(80) != arenaSectionCount {
		return nil, fmt.Errorf("core: arena section count %d, want %d", u64at(80), arenaSectionCount)
	}
	if c.length == 0 || c.length > 1<<20 {
		return nil, fmt.Errorf("core: implausible code length %d", c.length)
	}
	const maxCount = 1<<31 - 2
	for _, v := range []uint64{c.n, c.nGroups, c.nNodes, c.nRoots, c.nChild, c.nLeaf, c.nTop} {
		if v > maxCount {
			return nil, fmt.Errorf("core: arena counts overflow")
		}
	}
	if c.nRoots > c.nNodes {
		return nil, fmt.Errorf("core: arena claims %d roots of %d nodes", c.nRoots, c.nNodes)
	}

	// The section table must match the layout implied by the counts exactly:
	// ascending 8-aligned offsets with ≤7 pad bytes between sections, sizes
	// equal to count×width, and the last section ending within 7 bytes of
	// EOF. Anything else — overlap, gaps, truncation — is rejected here,
	// before a single array is touched.
	want, total := c.sectionTable()
	if uint64(len(data)) < total || uint64(len(data)) > align8(total) {
		return nil, fmt.Errorf("core: arena is %d bytes, layout wants %d", len(data), total)
	}
	var secs [arenaSectionCount][]byte
	for i := range want {
		off := u64at(88 + i*16)
		size := u64at(88 + i*16 + 8)
		if off != want[i][0] || size != want[i][1] {
			return nil, fmt.Errorf("core: arena section %d at (%d,%d), layout wants (%d,%d)", i, off, size, want[i][0], want[i][1])
		}
		secs[i] = data[off : off+size]
	}

	nw := int(c.length+63) / 64
	f := &FrozenIndex{
		length: int(c.length),
		n:      int(c.n),
		nw:     nw,
	}
	if canAliasArena && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0 {
		f.rootIDs = aliasI32(secs[secRoots])
		f.topLeaves = aliasI32(secs[secTop])
		f.childStart = aliasI32(secs[secChildStart])
		f.childList = aliasI32(secs[secChildList])
		f.leafStart = aliasI32(secs[secLeafStart])
		f.leafList = aliasI32(secs[secLeafList])
		f.idStart = aliasI32(secs[secIDStart])
		f.codeSlab = aliasU64(secs[secCodeSlab])
		f.idSlab = aliasInt(secs[secIDSlab])
		f.resSlab = aliasU64(secs[secResSlab])
		f.maskSlab = aliasU64(secs[secMaskSlab])
	} else {
		f.rootIDs = copyI32(secs[secRoots])
		f.topLeaves = copyI32(secs[secTop])
		f.childStart = copyI32(secs[secChildStart])
		f.childList = copyI32(secs[secChildList])
		f.leafStart = copyI32(secs[secLeafStart])
		f.leafList = copyI32(secs[secLeafList])
		f.idStart = copyI32(secs[secIDStart])
		f.codeSlab = copyU64(secs[secCodeSlab])
		f.idSlab = copyInt(secs[secIDSlab])
		f.resSlab = copyU64(secs[secResSlab])
		f.maskSlab = copyU64(secs[secMaskSlab])
	}
	if err := f.validateStructure(c); err != nil {
		return nil, err
	}
	return f, nil
}

// validateStructure bounds- and order-checks every structural array so the
// walks can index the slabs without further checks. It runs on the aliased
// views directly (cheap int32 scans; the word slabs are never read).
func (f *FrozenIndex) validateStructure(c arenaCounts) error {
	nNodes, nGroups := int32(c.nNodes), int32(c.nGroups)
	prev := int32(-1)
	for _, r := range f.rootIDs {
		if r <= prev || r >= nNodes {
			return fmt.Errorf("core: arena root %d out of order or range", r)
		}
		prev = r
	}
	for _, gi := range f.topLeaves {
		if gi < 0 || gi >= nGroups {
			return fmt.Errorf("core: arena top leaf %d out of range", gi)
		}
	}
	checkCSR := func(starts []int32, total uint64, what string) error {
		if starts[0] != 0 || starts[len(starts)-1] != int32(total) {
			return fmt.Errorf("core: arena %s prefix ends [%d,%d], want [0,%d]", what, starts[0], starts[len(starts)-1], total)
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				return fmt.Errorf("core: arena %s prefix decreases at %d", what, i)
			}
		}
		return nil
	}
	if err := checkCSR(f.childStart, c.nChild, "child"); err != nil {
		return err
	}
	if err := checkCSR(f.leafStart, c.nLeaf, "leaf"); err != nil {
		return err
	}
	if err := checkCSR(f.idStart, c.n, "id"); err != nil {
		return err
	}
	// Level-order invariant: every child id exceeds its parent's — rules out
	// cycles and guarantees the BFS walk terminates.
	for nid := int32(0); nid < nNodes; nid++ {
		for ci := f.childStart[nid]; ci < f.childStart[nid+1]; ci++ {
			if cc := f.childList[ci]; cc <= nid || cc >= nNodes {
				return fmt.Errorf("core: arena node %d lists child %d out of level order", nid, cc)
			}
		}
	}
	for _, gi := range f.leafList {
		if gi < 0 || gi >= nGroups {
			return fmt.Errorf("core: arena leaf ref %d out of range", gi)
		}
	}
	return nil
}

// mapFrozenEager is the portable MapFrozen fallback: read the whole file and
// decode it, aliasing the buffer read where the host can.
func mapFrozenEager(path string, off int64) (*FrozenIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if off < 0 || off%8 != 0 || off >= int64(len(data)) {
		return nil, fmt.Errorf("core: arena offset %d in a %d-byte file", off, len(data))
	}
	return DecodeArenaBytes(data[off:])
}

// ---- byte-slice views ----

func aliasI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func aliasU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func aliasInt(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/8)
}

func copyI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func copyU64(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func copyInt(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[i*8:])))
	}
	return out
}

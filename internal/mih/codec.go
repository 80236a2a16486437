package mih

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"haindex/internal/core"
)

// codecVersion is the HADX v3 layout: the MIH arenas serialized directly,
// mirroring the frozen HA-Index's v2 section — decoding is a flat fill of
// the slabs, no per-probe reconstruction. The version is registered with
// core.RegisterIndexDecoder so core.DecodeIndex (and therefore the snapshot
// loader) understands MIH sections wherever a HADX stream is accepted.
//
// Layout (integers are unsigned varints unless noted):
//
//	magic "HADX" | version 3 | code length L | flags (bit0: ids present)
//	blocks | matched | nGroups | nKeys | nCands
//	codeSlab: nGroups*nw words (fixed 8B big-endian each)
//	ids (only when flag set): per group: count, then delta-encoded ids
//	per-table key counts: C(blocks, matched) values summing to nKeys
//	keys: per table, first key raw, then strictly positive deltas
//	candidate degrees: nKeys counts (prefix-summed into candStart on decode)
//	cands: nCands group indexes
const codecVersion = 3

// Encode writes the index in the v3 arena layout. With withIDs=false the
// tuple-id tables are omitted (the leafless Option-B broadcast form, as the
// HA-Index codecs offer).
func (m *Index) Encode(w io.Writer, withIDs bool) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("HADX"); err != nil {
		return err
	}
	putUvarint(bw, codecVersion)
	putUvarint(bw, uint64(m.length))
	flags := uint64(0)
	if withIDs {
		flags |= 1
	}
	putUvarint(bw, flags)
	for _, v := range []uint64{
		uint64(m.blocks), uint64(m.matched),
		uint64(m.GroupCount()), uint64(len(m.keys)), uint64(len(m.cands)),
	} {
		putUvarint(bw, v)
	}
	var buf [8]byte
	for _, word := range m.grp.Codes {
		binary.BigEndian.PutUint64(buf[:], word)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	if withIDs {
		for gi, ng := 0, m.GroupCount(); gi < ng; gi++ {
			ids := m.grp.GroupIDs(gi)
			putUvarint(bw, uint64(len(ids)))
			prev := int64(0)
			for _, id := range ids {
				putVarint(bw, int64(id)-prev)
				prev = int64(id)
			}
		}
	}
	for t := 0; t < len(m.combos); t++ {
		putUvarint(bw, uint64(m.tabStart[t+1]-m.tabStart[t]))
	}
	for t := 0; t < len(m.combos); t++ {
		prev := uint64(0)
		for i := m.tabStart[t]; i < m.tabStart[t+1]; i++ {
			k := m.keys[i]
			if i == m.tabStart[t] {
				putUvarint(bw, k)
			} else {
				putUvarint(bw, k-prev)
			}
			prev = k
		}
	}
	for i := 0; i < len(m.keys); i++ {
		putUvarint(bw, uint64(m.candStart[i+1]-m.candStart[i]))
	}
	for _, gi := range m.cands {
		putUvarint(bw, uint64(gi))
	}
	return bw.Flush()
}

// EncodedSize returns the exact wire size of the index in the chosen form.
func (m *Index) EncodedSize(withIDs bool) (int, error) {
	var c countingWriter
	if err := m.Encode(&c, withIDs); err != nil {
		return 0, err
	}
	return int(c), nil
}

// Decode reads an MIH index previously written by Encode. The decoded index
// owns its group slabs, whatever the encoded one aliased. Corrupt or hostile
// input returns an error, never panics, and never allocates faster than real
// bytes arrive.
func Decode(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("mih: reading index magic: %w", err)
	}
	if string(magic) != "HADX" {
		return nil, fmt.Errorf("mih: bad index magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("mih: not an MIH index (version %d)", version)
	}
	return decodeBody(br)
}

func init() {
	core.RegisterIndexDecoder(codecVersion, func(br *bufio.Reader) (core.Index, error) {
		m, err := decodeBody(br)
		if err != nil {
			return nil, err
		}
		return core.AsIndex(m), nil
	})
}

// decodeBody parses the v3 layout after the magic and version. Structural
// invariants — parameter plausibility, strictly increasing keys that fit
// their table's width, degree sums matching declared totals, every group
// referenced exactly once per table — are all enforced, so a hostile stream
// cannot produce an index whose probes read out of bounds or loop.
func decodeBody(br *bufio.Reader) (*Index, error) {
	length64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	length := int(length64)
	if length <= 0 || length > 1<<20 {
		return nil, fmt.Errorf("mih: implausible code length %d", length)
	}
	flags, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	withIDs := flags&1 != 0
	var blocks, matched, nGroups, nKeys, nCands uint64
	for _, dst := range []*uint64{&blocks, &matched, &nGroups, &nKeys, &nCands} {
		if *dst, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
	}
	if blocks == 0 || matched == 0 || blocks > uint64(length) || matched > blocks {
		return nil, fmt.Errorf("mih: implausible parameters blocks=%d matched=%d", blocks, matched)
	}
	if nGroups > 1<<31-2 || nKeys > 1<<31-2 || nCands > 1<<31-2 {
		return nil, fmt.Errorf("mih: index counts overflow")
	}
	m, err := newIndex(length, 0, Options{Blocks: int(blocks), Matched: int(matched)})
	if err != nil {
		return nil, err
	}
	tables := uint64(len(m.combos))
	// Every distinct code keys into every table exactly once, so the
	// candidate arena's size is fully determined — anything else is corrupt.
	if nCands != tables*nGroups {
		return nil, fmt.Errorf("mih: %d candidate refs for %d tables over %d groups", nCands, tables, nGroups)
	}
	if nKeys > nCands {
		return nil, fmt.Errorf("mih: %d keys exceed %d candidate refs", nKeys, nCands)
	}

	// Code slab in bounded chunks so allocation tracks real input.
	var chunk [512 * 8]byte
	words := nGroups * uint64(m.nw)
	for words > 0 {
		c := uint64(len(chunk) / 8)
		if c > words {
			c = words
		}
		if _, err := io.ReadFull(br, chunk[:c*8]); err != nil {
			return nil, fmt.Errorf("mih: reading code slab: %w", err)
		}
		for i := uint64(0); i < c; i++ {
			m.grp.Codes = append(m.grp.Codes, binary.BigEndian.Uint64(chunk[i*8:]))
		}
		words -= c
	}
	m.grp.IDStart = make([]int32, 0, 1024)
	if withIDs {
		for g := uint64(0); g < nGroups; g++ {
			m.grp.IDStart = append(m.grp.IDStart, int32(len(m.grp.IDs)))
			cnt, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			prev := int64(0)
			for j := uint64(0); j < cnt; j++ {
				d, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				prev += d
				if len(m.grp.IDs) >= 1<<31-2 {
					return nil, fmt.Errorf("mih: id table overflows")
				}
				m.grp.IDs = append(m.grp.IDs, int(prev))
			}
		}
	} else {
		for g := uint64(0); g < nGroups; g++ {
			m.grp.IDStart = append(m.grp.IDStart, 0)
		}
	}
	m.grp.IDStart = append(m.grp.IDStart, int32(len(m.grp.IDs)))

	// Per-table key counts, prefix-summed into tabStart.
	m.tabStart = make([]int32, 0, tables+1)
	sum := uint64(0)
	for t := uint64(0); t < tables; t++ {
		m.tabStart = append(m.tabStart, int32(sum))
		cnt, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("mih: reading table %d key count: %w", t, err)
		}
		if cnt > nGroups {
			return nil, fmt.Errorf("mih: table %d claims %d keys for %d groups", t, cnt, nGroups)
		}
		if cnt == 0 && nGroups > 0 {
			return nil, fmt.Errorf("mih: table %d has no keys for %d groups", t, nGroups)
		}
		sum += cnt
		if sum > nKeys {
			return nil, fmt.Errorf("mih: table key counts exceed declared total %d", nKeys)
		}
	}
	if sum != nKeys {
		return nil, fmt.Errorf("mih: table key counts sum to %d, declared %d", sum, nKeys)
	}
	m.tabStart = append(m.tabStart, int32(sum))

	// Keys per table: first raw, then strictly positive deltas, each key
	// fitting the table's width so hostile keys cannot shadow real buckets.
	for t := uint64(0); t < tables; t++ {
		width := uint(m.widths[t])
		prev := uint64(0)
		for i := m.tabStart[t]; i < m.tabStart[t+1]; i++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("mih: reading table %d keys: %w", t, err)
			}
			key := v
			if i > m.tabStart[t] {
				if v == 0 {
					return nil, fmt.Errorf("mih: table %d keys not strictly increasing", t)
				}
				key = prev + v
				if key < prev {
					return nil, fmt.Errorf("mih: table %d key overflows", t)
				}
			}
			if width < 64 && key >= 1<<width {
				return nil, fmt.Errorf("mih: table %d key %d exceeds %d-bit width", t, key, width)
			}
			m.keys = append(m.keys, key)
			prev = key
		}
	}

	// Candidate degrees prefix-summed into candStart; each table's buckets
	// must cover its groups exactly once.
	m.candStart = make([]int32, 0, nKeys+1)
	sum = 0
	next := uint64(0)
	for i := uint64(0); i < nKeys; i++ {
		m.candStart = append(m.candStart, int32(sum))
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("mih: reading candidate degrees: %w", err)
		}
		if deg == 0 {
			return nil, fmt.Errorf("mih: empty bucket at key %d", i)
		}
		sum += deg
		if sum > nCands {
			return nil, fmt.Errorf("mih: candidate degrees exceed declared total %d", nCands)
		}
		if next < tables && i+1 == uint64(m.tabStart[next+1]) {
			if sum != (next+1)*nGroups {
				return nil, fmt.Errorf("mih: table %d buckets cover %d of %d groups", next, sum-next*nGroups, nGroups)
			}
			next++
		}
	}
	if sum != nCands {
		return nil, fmt.Errorf("mih: candidate degrees sum to %d, declared %d", sum, nCands)
	}
	m.candStart = append(m.candStart, int32(sum))

	for i := uint64(0); i < nCands; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("mih: reading candidate refs: %w", err)
		}
		if v >= nGroups {
			return nil, fmt.Errorf("mih: candidate group %d out of range (%d)", v, nGroups)
		}
		m.cands = append(m.cands, int32(v))
	}
	m.setCrossovers()
	return m, nil
}

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

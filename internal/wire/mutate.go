package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"haindex/internal/bitvec"
)

// The mutation frames: one write frame and the seal. A mutable shard server
// (internal/lsm behind internal/server) answers InsertReq and SealReq; an
// immutable server refuses them with MsgError.

// InsertReq is the one write frame: a batch of ids and, optionally, one code
// per id, and the router sends every shard the whole batch. A shard upserts
// each (id, code) pair whose code falls in its own Gray range, replacing any
// live tuple with the same id wherever it sits in the LSM layering, and
// deletes every other id, so an id whose code moved to another partition
// leaves no copy behind, and a frame without codes deletes its ids on every
// shard.
type InsertReq struct {
	IDs   []int
	Codes []bitvec.Code // none, or one per id
}

// Append encodes the ids, then the code count and the codes. It sizes dst
// for the whole batch first: the router encodes it once, for every shard.
func (m InsertReq) Append(dst []byte) []byte {
	size := (2 + len(m.IDs)) * binary.MaxVarintLen64
	if len(m.Codes) > 0 {
		size += len(m.Codes) * bitvec.EncodedLen(m.Codes[0].Len())
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for _, id := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Codes)))
	for _, c := range m.Codes {
		dst = c.AppendBytes(dst)
	}
	return dst
}

// ParseInsertReq decodes a batch whose codes, if it carries any, have the
// session's length; a code count other than 0 or the id count is refused.
// As in ParseSearchReq, the batch's codes share one word slab, sized by the
// count.
func ParseInsertReq(payload []byte, length int) (InsertReq, error) {
	p := &buf{b: payload}
	n := p.count(1)
	m := InsertReq{IDs: make([]int, 0, n)}
	for i := 0; i < n && p.err == nil; i++ {
		m.IDs = append(m.IDs, p.intv())
	}
	nw := bitvec.EncodedLen(length) / 8
	switch k := p.count(8 * nw); {
	case p.err != nil || k == 0:
	case k != n:
		p.err = fmt.Errorf("wire: %d codes for %d ids", k, n)
	default:
		words := make([]uint64, n*nw)
		m.Codes = make([]bitvec.Code, 0, n)
		for i := 0; i < n && p.err == nil; i++ {
			m.Codes = append(m.Codes, p.codeInto(words[i*nw:(i+1)*nw], length))
		}
	}
	return m, p.done()
}

// InsertResp acknowledges a write frame.
type InsertResp struct {
	Live int // the frame's ids that were live on this shard: upserted over or deleted
}

func (m InsertResp) Append(dst []byte) []byte {
	return binary.AppendUvarint(dst, uint64(m.Live))
}

func ParseInsertResp(payload []byte) (InsertResp, error) {
	p := &buf{b: payload}
	m := InsertResp{Live: p.intv()}
	return m, p.done()
}

// SealReq asks the shard to freeze its memtable into a segment now, and
// optionally compact the segment stack afterwards. The server answers after
// the structural change is live, so SealOK is a durability barrier for
// every previously-acknowledged mutation on this connection.
type SealReq struct {
	Compact bool
}

func (m SealReq) Append(dst []byte) []byte {
	v := uint64(0)
	if m.Compact {
		v = 1
	}
	return binary.AppendUvarint(dst, v)
}

func ParseSealReq(payload []byte) (SealReq, error) {
	p := &buf{b: payload}
	m := SealReq{Compact: p.uvarint() != 0}
	return m, p.done()
}

// SealOK reports the shard layering after the seal (and compaction).
type SealOK struct {
	Segments     int
	MemtableSize int
	Tombstones   int
	Epoch        uint64
}

func (m SealOK) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Segments))
	dst = binary.AppendUvarint(dst, uint64(m.MemtableSize))
	dst = binary.AppendUvarint(dst, uint64(m.Tombstones))
	return binary.AppendUvarint(dst, m.Epoch)
}

func ParseSealOK(payload []byte) (SealOK, error) {
	p := &buf{b: payload}
	m := SealOK{
		Segments:     p.intv(),
		MemtableSize: p.intv(),
		Tombstones:   p.intv(),
		Epoch:        p.uvarint(),
	}
	return m, p.done()
}

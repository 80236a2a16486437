// Package wire is the binary protocol between the haserve shard server and
// the haquery client router, plus the on-disk shard snapshot format both
// ends load. The conversation is length-prefixed frames over TCP:
//
//	frame   := length uint32 BE (type + payload) | type byte | payload
//	session := Hello -> HelloOK, then any number of
//	           Search -> SearchOK | Shed | TopK -> TopKOK | Shed |
//	           Stats -> StatsOK | Insert -> InsertOK | Seal -> SealOK,
//	           any of which may instead answer Error.
//
// Shed is the polite overload answer to a search or top-k: the shard is
// healthy but its admission queue outlasted the wait budget. Insert is the
// one write frame, an upsert of (id, code) pairs or, without codes, a delete
// of ids. It and Seal are answered by a mutable (LSM) shard; an immutable
// one answers them Error.
//
// The Hello exchange carries the protocol version, and there is exactly one:
// a server refuses any Hello whose version is not Version, and a client any
// HelloOK likewise, each naming both numbers. A frame layout change bumps
// Version and deletes the old layout in the same change. Payload integers are
// unsigned varints; binary codes travel fixed-width (bitvec.AppendBytes)
// since the code length is fixed per session by the handshake.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"haindex/internal/bitvec"
)

// Version is the one protocol version this build speaks; both ends of a
// session must match it exactly. Bump on any frame layout change, or on a
// change to what a frame means. v9: a delete is an Insert frame without
// codes (there is no Delete frame), and InsertResp carries only the count of
// ids that were live.
const Version = 9

// Engine hints a SearchReq can carry. EngineAuto (the zero value) is never
// put on the wire — Append omits the field.
const (
	EngineAuto = iota // let the server's planner choose per request
	EngineHA          // force the HA-Index walk
	EngineMIH         // force multi-index hashing
	EngineScan        // force the brute-force scan
)

// MaxFrame bounds a frame's payload so a corrupt or hostile length prefix
// cannot make a reader allocate unboundedly.
const MaxFrame = 1 << 26

// MsgType tags a frame.
type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgHelloOK
	MsgSearch
	MsgSearchOK
	MsgTopK
	MsgTopKOK
	MsgStats
	MsgStatsOK
	MsgError

	// Mutation frames for the LSM serving tier.
	MsgInsert
	MsgInsertOK
	MsgSeal
	MsgSealOK

	// The overload answer to a search or top-k request. Unlike
	// MsgError it is polite — the server is healthy but its admission queue
	// exceeded the request's wait budget, and the client should back off
	// before it asks again rather than count a failure.
	MsgShed
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloOK:
		return "hello-ok"
	case MsgSearch:
		return "search"
	case MsgSearchOK:
		return "search-ok"
	case MsgTopK:
		return "topk"
	case MsgTopKOK:
		return "topk-ok"
	case MsgStats:
		return "stats"
	case MsgStatsOK:
		return "stats-ok"
	case MsgError:
		return "error"
	case MsgInsert:
		return "write"
	case MsgInsertOK:
		return "write-ok"
	case MsgSeal:
		return "seal"
	case MsgSealOK:
		return "seal-ok"
	case MsgShed:
		return "shed"
	}
	return "msg(" + strconv.Itoa(int(t)) + ")"
}

// framePool recycles the buffers WriteFrame assembles frames in.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one frame with exactly one Write — header and payload
// assembled in one buffer — so on a raw connection a frame is one syscall, one
// segment and one wake-up of the peer. The payload must be under MaxFrame bytes.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) >= MaxFrame {
		return fmt.Errorf("wire: %s frame payload %d exceeds limit", t, len(payload))
	}
	bp := framePool.Get().(*[]byte)
	frame := binary.BigEndian.AppendUint32((*bp)[:0], uint32(len(payload)+1))
	frame = append(append(frame, byte(t)), payload...)
	_, err := w.Write(frame)
	if cap(frame) <= 64<<10 { // a rare huge frame is not worth pinning
		*bp = frame
		framePool.Put(bp)
	}
	return err
}

// readStep is the most ReadFrame allocates ahead of the bytes that have
// actually arrived: a length prefix is a claim, not data, and a peer that
// sends only a header must not pin MaxFrame bytes per connection.
const readStep = 256 << 10

// ReadFrame reads one frame, rejecting empty or oversized length prefixes.
// Frames up to readStep are one allocation; a longer one grows its buffer as
// its bytes arrive, doubling from readStep.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	claimed := binary.BigEndian.Uint32(hdr[:])
	if claimed == 0 || claimed > MaxFrame {
		return 0, nil, fmt.Errorf("wire: implausible frame length %d", claimed)
	}
	n := int(claimed)
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err != nil {
			return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
		}
	}
	return MsgType(buf[0]), buf[1:], nil
}

// buf is a cursor over a received payload; every parse helper fails softly
// so corrupt input surfaces as an error, never a panic.
type buf struct {
	b   []byte
	err error
}

func (p *buf) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.err = fmt.Errorf("wire: truncated varint")
		return 0
	}
	p.b = p.b[n:]
	return v
}

// count reads a length field that predicts at least perItem remaining bytes
// per element, so hostile counts fail immediately instead of allocating.
func (p *buf) count(perItem int) int {
	v := p.uvarint()
	if p.err != nil {
		return 0
	}
	if perItem < 1 {
		perItem = 1
	}
	if v > uint64(len(p.b)/perItem)+1 {
		p.err = fmt.Errorf("wire: count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

func (p *buf) intv() int {
	v := p.uvarint()
	if v > math.MaxInt32 {
		p.err = fmt.Errorf("wire: varint %d out of range", v)
		return 0
	}
	return int(v)
}

func (p *buf) code(length int) bitvec.Code {
	if p.err != nil {
		return bitvec.Code{}
	}
	c, n, err := bitvec.CodeFromBytes(p.b, length)
	if err != nil {
		p.err = err
		return bitvec.Code{}
	}
	p.b = p.b[n:]
	return c
}

// codeInto decodes a length-bit code into words, which must hold exactly its
// words, and returns the code over them. Like bitvec.CodeFromBytes it keeps
// whatever tail bits the sender set.
func (p *buf) codeInto(words []uint64, length int) bitvec.Code {
	if p.err != nil {
		return bitvec.Code{}
	}
	if len(p.b) < 8*len(words) {
		p.err = fmt.Errorf("wire: truncated code")
		return bitvec.Code{}
	}
	for i := range words {
		words[i] = binary.BigEndian.Uint64(p.b[8*i:])
	}
	p.b = p.b[8*len(words):]
	return bitvec.FromWordsShared(words, length)
}

func (p *buf) done() error {
	if p.err != nil {
		return p.err
	}
	if len(p.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(p.b))
	}
	return nil
}

// Hello is the client's opening frame.
type Hello struct {
	Version int
}

func (m Hello) Append(dst []byte) []byte {
	return binary.AppendUvarint(dst, uint64(m.Version))
}

func ParseHello(payload []byte) (Hello, error) {
	p := &buf{b: payload}
	m := Hello{Version: p.intv()}
	return m, p.done()
}

// HelloOK describes the shard behind the connection: protocol version, the
// header of the snapshot it serves (code length, which Gray partition it owns
// out of how many, and the pivot list the partitioning was built from, so a
// router can learn the routing table from the shards themselves), and the
// tuple count.
type HelloOK struct {
	Version int
	SnapshotMeta
	Tuples int
}

func (m HelloOK) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	dst = binary.AppendUvarint(dst, uint64(m.Length))
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, uint64(m.Parts))
	dst = binary.AppendUvarint(dst, uint64(m.Tuples))
	dst = binary.AppendUvarint(dst, uint64(len(m.Pivots)))
	for _, c := range m.Pivots {
		dst = c.AppendBytes(dst)
	}
	return dst
}

func ParseHelloOK(payload []byte) (HelloOK, error) {
	p := &buf{b: payload}
	var m HelloOK
	m.Version = p.intv()
	m.Length = p.intv()
	m.Part = p.intv()
	m.Parts = p.intv()
	m.Tuples = p.intv()
	if p.err == nil && (m.Length <= 0 || m.Length > 1<<20) {
		return m, fmt.Errorf("wire: implausible code length %d", m.Length)
	}
	n := p.count(bitvec.EncodedLen(m.Length))
	for i := 0; i < n && p.err == nil; i++ {
		m.Pivots = append(m.Pivots, p.code(m.Length))
	}
	if err := p.done(); err != nil {
		return m, err
	}
	// The layout a router indexes its shard table and routes by: the same
	// rules a snapshot header is held to.
	return m, m.validate()
}

// SearchReq is a batch of Hamming-select queries at threshold H. Engine is
// the per-batch engine hint; EngineAuto leaves the choice to the server's
// planner.
type SearchReq struct {
	H       int
	Length  int
	Engine  int
	Queries []bitvec.Code
}

// Append encodes the request. Engine is an optional trailing varint, omitted
// when auto.
func (m SearchReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.H))
	dst = binary.AppendUvarint(dst, uint64(len(m.Queries)))
	for _, q := range m.Queries {
		dst = q.AppendBytes(dst)
	}
	if m.Engine != EngineAuto {
		dst = binary.AppendUvarint(dst, uint64(m.Engine))
	}
	return dst
}

// ParseSearchReq decodes a request whose codes have the session's length.
// The batch's codes share one word slab, sized by the count, which count
// bounds by the payload.
func ParseSearchReq(payload []byte, length int) (SearchReq, error) {
	p := &buf{b: payload}
	m := SearchReq{Length: length, H: p.intv()}
	nw := bitvec.EncodedLen(length) / 8
	n := p.count(8 * nw)
	words := make([]uint64, n*nw)
	m.Queries = make([]bitvec.Code, 0, n)
	for i := 0; i < n && p.err == nil; i++ {
		m.Queries = append(m.Queries, p.codeInto(words[i*nw:(i+1)*nw], length))
	}
	// Trailing engine hint, omitted when auto.
	if p.err == nil && len(p.b) != 0 {
		m.Engine = p.intv()
		if p.err == nil && (m.Engine < EngineAuto || m.Engine > EngineScan) {
			return m, fmt.Errorf("wire: unknown engine hint %d", m.Engine)
		}
	}
	return m, p.done()
}

// SearchResp carries, per query, the sorted matching ids (delta-encoded).
type SearchResp struct {
	IDs [][]int
}

func (m SearchResp) Append(dst []byte) []byte {
	total := 0
	for _, ids := range m.IDs {
		total += len(ids)
	}
	// Two bytes a delta is what a few hundred ids out of a shard's 2^17 take;
	// a sparser answer grows dst once more, a denser one wastes half.
	dst = slices.Grow(dst, 1+len(m.IDs)+2*total)
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for _, ids := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(len(ids)))
		prev := 0
		for _, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id-prev))
			prev = id
		}
	}
	return dst
}

// ParseSearchResp decodes every query's ids into one slab, sub-sliced per
// query (nil for a query without matches). The slab is sized by the varints
// that actually arrived — each ends in its one byte under 0x80 — less the
// count fields, so a count claiming more ids than the payload has bytes for
// fails before anything is allocated for it.
func ParseSearchResp(payload []byte) (SearchResp, error) {
	p := &buf{b: payload}
	nq := p.count(1)
	varints := 0
	for _, c := range payload {
		if c < 0x80 {
			varints++
		}
	}
	slab := make([]int, max(0, varints-1-nq))
	m := SearchResp{IDs: make([][]int, 0, nq)}
	for i := 0; i < nq && p.err == nil; i++ {
		n := p.count(1)
		if n > len(slab) {
			p.err = fmt.Errorf("wire: count %d exceeds remaining payload", n)
			break
		}
		if n == 0 {
			m.IDs = append(m.IDs, nil)
			continue
		}
		ids := slab[:n:n]
		slab = slab[n:]
		prev := 0
		for j := range ids {
			// One- and two-byte deltas are nearly all of them.
			switch b := p.b; {
			case len(b) > 0 && b[0] < 0x80:
				prev += int(b[0])
				p.b = b[1:]
			case len(b) > 1 && b[1] < 0x80:
				prev += int(b[0]&0x7f) | int(b[1])<<7
				p.b = b[2:]
			default:
				prev += p.intv()
				if p.err != nil {
					return m, p.err
				}
			}
			ids[j] = prev
		}
		m.IDs = append(m.IDs, ids)
	}
	return m, p.done()
}

// TopKReq asks for the K nearest ids per query.
type TopKReq struct {
	K       int
	Length  int
	Queries []bitvec.Code
}

func (m TopKReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.K))
	dst = binary.AppendUvarint(dst, uint64(len(m.Queries)))
	for _, q := range m.Queries {
		dst = q.AppendBytes(dst)
	}
	return dst
}

func ParseTopKReq(payload []byte, length int) (TopKReq, error) {
	p := &buf{b: payload}
	m := TopKReq{Length: length, K: p.intv()}
	n := p.count(bitvec.EncodedLen(length))
	for i := 0; i < n && p.err == nil; i++ {
		m.Queries = append(m.Queries, p.code(length))
	}
	return m, p.done()
}

// TopKResp carries, per query, (id, distance) pairs ordered by
// (distance, id) — the order the router's k-way merge preserves.
type TopKResp struct {
	IDs   [][]int
	Dists [][]int
}

func (m TopKResp) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for i, ids := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(len(ids)))
		for j, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id))
			dst = binary.AppendUvarint(dst, uint64(m.Dists[i][j]))
		}
	}
	return dst
}

func ParseTopKResp(payload []byte) (TopKResp, error) {
	p := &buf{b: payload}
	nq := p.count(1)
	m := TopKResp{IDs: make([][]int, 0, nq), Dists: make([][]int, 0, nq)}
	for i := 0; i < nq && p.err == nil; i++ {
		n := p.count(2)
		var ids, dists []int
		for j := 0; j < n && p.err == nil; j++ {
			ids = append(ids, p.intv())
			dists = append(dists, p.intv())
		}
		m.IDs = append(m.IDs, ids)
		m.Dists = append(m.Dists, dists)
	}
	return m, p.done()
}

// StatsResp is the server's counter snapshot: nine counters, four
// per-request search/top-k latency percentiles in nanoseconds served from the
// shard's observability registry, and the admission-wait median. All fourteen
// varints are always present.
type StatsResp struct {
	Requests             int64
	Queries              int64
	TopKQueries          int64
	IDsReturned          int64
	Errors               int64
	FaultsInjected       int64
	DistanceComputations int64
	NodesVisited         int64
	LeavesChecked        int64

	LatencyP50Ns int64
	LatencyP95Ns int64
	LatencyP99Ns int64
	LatencyMaxNs int64

	AdmissionP50Ns int64
}

// fields lists every field in wire order, for Append and ParseStatsResp.
func (m *StatsResp) fields() [14]*int64 {
	return [14]*int64{
		&m.Requests, &m.Queries, &m.TopKQueries, &m.IDsReturned, &m.Errors,
		&m.FaultsInjected, &m.DistanceComputations, &m.NodesVisited, &m.LeavesChecked,
		&m.LatencyP50Ns, &m.LatencyP95Ns, &m.LatencyP99Ns, &m.LatencyMaxNs,
		&m.AdmissionP50Ns,
	}
}

func (m StatsResp) Append(dst []byte) []byte {
	for _, f := range m.fields() {
		dst = binary.AppendUvarint(dst, uint64(*f))
	}
	return dst
}

func ParseStatsResp(payload []byte) (StatsResp, error) {
	p := &buf{b: payload}
	var m StatsResp
	for _, f := range m.fields() {
		*f = int64(p.uvarint())
	}
	return m, p.done()
}

// ShedResp is the payload of a MsgShed answer: the server refused to queue
// the request past its admission budget. WaitNs reports how long the
// request did wait before being shed, so clients and load harnesses can see
// the budget that was burned.
type ShedResp struct {
	WaitNs int64
}

func (m ShedResp) Append(dst []byte) []byte {
	return binary.AppendUvarint(dst, uint64(m.WaitNs))
}

func ParseShedResp(payload []byte) (ShedResp, error) {
	p := &buf{b: payload}
	m := ShedResp{WaitNs: int64(p.uvarint())}
	return m, p.done()
}

// ErrorMsg is the server-side failure report for one request.
type ErrorMsg struct {
	Msg string
}

func (m ErrorMsg) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Msg)))
	return append(dst, m.Msg...)
}

func ParseErrorMsg(payload []byte) (ErrorMsg, error) {
	p := &buf{b: payload}
	n := p.count(1)
	if p.err != nil {
		return ErrorMsg{}, p.err
	}
	if n > len(p.b) {
		return ErrorMsg{}, fmt.Errorf("wire: error message length %d exceeds payload", n)
	}
	m := ErrorMsg{Msg: string(p.b[:n])}
	p.b = p.b[n:]
	return m, p.done()
}

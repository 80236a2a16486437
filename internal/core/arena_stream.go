package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"haindex/internal/bitvec"
)

// FrozenStreamWriter builds a HADX v4 arena incrementally, in bounded
// memory: tuples are accumulated into a row slab, each chunk of it is built on
// its own by BuildFrozen (H-Build straight into arenas, no pointer form), and
// the chunk's arenas are appended — with all node/group/offset references
// shifted by the running totals — onto per-section temp spool files that
// Finish concatenates into the final image. Peak RSS is O(chunkSize), not
// O(total), which is what lets a MapReduce reducer emit a multi-million-code
// frozen shard without ever holding the partition's index in memory.
//
// The result is a forest of per-chunk hierarchies over disjoint tuple
// subsets: its roots are scattered (recorded in the v4 root list), but the
// level-order child>parent invariant holds because every chunk's ids are
// shifted uniformly, so the frozen walks run unchanged. Search answers are
// the union over chunks — identical to a monolithic build's answers, since
// both emit exactly the tuples within distance h. Feed tuples in Gray-rank
// order (gray.Sort) so each chunk covers a tight Gray range and the per-chunk
// hierarchies stay as selective as a monolithic build's: BuildFrozen sorts a
// chunk it is handed out of order (an ordered one costs it one pass), but
// only a sorted stream makes the chunks ranges.
//
// The writer is single-goroutine; after Finish or Abort it must not be used.
type FrozenStreamWriter struct {
	length    int
	chunkSize int
	opts      Options

	rows []uint64 // the pending chunk: the codes' words, copied, back to back
	ids  []int

	dir    string
	spools [arenaSectionCount]*spool

	nGroups, nNodes, nRoots, nChild, nLeaf, nTop, n uint64
	chunks                                          int
	err                                             error
}

// spool is one section's temp file behind a buffered writer.
type spool struct {
	f  *os.File
	bw *bufio.Writer
}

// NewFrozenStreamWriter returns a streaming builder for length-bit codes
// that freezes every chunkSize tuples (≥1; a few hundred thousand is a good
// default — small enough to bound RSS, large enough that per-chunk hierarchy
// quality matches a monolithic build over the same Gray range). Spool files
// live in a fresh temp directory until Finish or Abort removes them.
func NewFrozenStreamWriter(length, chunkSize int, opts Options) (*FrozenStreamWriter, error) {
	if length <= 0 || length > 1<<20 {
		return nil, fmt.Errorf("core: implausible code length %d", length)
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("core: chunk size %d", chunkSize)
	}
	dir, err := os.MkdirTemp("", "haidx-arena-")
	if err != nil {
		return nil, err
	}
	sw := &FrozenStreamWriter{length: length, chunkSize: chunkSize, opts: opts, dir: dir}
	for i := range sw.spools {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("sec%02d", i)))
		if err != nil {
			sw.Abort()
			return nil, err
		}
		sw.spools[i] = &spool{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	}
	return sw, nil
}

// Add appends one tuple, copying the code's words: the caller may reuse them
// at once. When the current chunk fills, it is built and spooled before Add
// returns.
func (sw *FrozenStreamWriter) Add(id int, code bitvec.Code) error {
	if sw.err != nil {
		return sw.err
	}
	if code.Len() != sw.length {
		return sw.fail(fmt.Errorf("core: %d-bit code in a %d-bit stream", code.Len(), sw.length))
	}
	sw.rows = append(sw.rows, code.Words()...)
	sw.ids = append(sw.ids, id)
	if len(sw.ids) >= sw.chunkSize {
		return sw.flushChunk()
	}
	return nil
}

// Len returns the number of tuples added so far.
func (sw *FrozenStreamWriter) Len() int { return int(sw.n) + len(sw.ids) }

// Length returns the code length in bits the stream was created for.
func (sw *FrozenStreamWriter) Length() int { return sw.length }

func (sw *FrozenStreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
		sw.cleanup()
	}
	return sw.err
}

// flushChunk builds the buffered tuples and appends their arenas to the
// spools, shifting every cross-array reference by the running totals.
func (sw *FrozenStreamWriter) flushChunk() error {
	if len(sw.ids) == 0 {
		return nil
	}
	f := BuildFrozen(sw.length, sw.rows, sw.ids, sw.opts)
	sw.rows = sw.rows[:0]
	sw.ids = sw.ids[:0]

	nodeOff, groupOff := int32(sw.nNodes), int32(sw.nGroups)
	childOff, leafOff, idOff := int32(sw.nChild), int32(sw.nLeaf), int32(sw.n)
	nn := len(f.childStart) - 1

	const maxCount = 1<<31 - 2
	sw.nGroups += uint64(f.GroupCount())
	sw.nNodes += uint64(nn)
	sw.nRoots += uint64(len(f.rootIDs))
	sw.nChild += uint64(len(f.childList))
	sw.nLeaf += uint64(len(f.leafList))
	sw.nTop += uint64(len(f.topLeaves))
	sw.n += uint64(len(f.idSlab))
	for _, v := range []uint64{sw.nGroups, sw.nNodes, sw.nChild, sw.nLeaf, sw.n} {
		if v > maxCount {
			return sw.fail(fmt.Errorf("core: streamed arena exceeds 2^31 elements"))
		}
	}
	sw.chunks++

	shift := func(sec int, vals []int32, off int32) error {
		return spoolI32s(sw.spools[sec], vals, off)
	}
	// The prefix arrays spool without their final sentinel — the next chunk's
	// shifted entries continue them, and Finish appends the closing totals.
	if err := shift(secRoots, f.rootIDs, nodeOff); err != nil {
		return sw.fail(err)
	}
	if err := shift(secTop, f.topLeaves, groupOff); err != nil {
		return sw.fail(err)
	}
	if err := shift(secChildStart, f.childStart[:nn], childOff); err != nil {
		return sw.fail(err)
	}
	if err := shift(secChildList, f.childList, nodeOff); err != nil {
		return sw.fail(err)
	}
	if err := shift(secLeafStart, f.leafStart[:nn], leafOff); err != nil {
		return sw.fail(err)
	}
	if err := shift(secLeafList, f.leafList, groupOff); err != nil {
		return sw.fail(err)
	}
	if err := shift(secIDStart, f.idStart[:f.GroupCount()], idOff); err != nil {
		return sw.fail(err)
	}
	if err := spoolU64s(sw.spools[secCodeSlab], f.codeSlab); err != nil {
		return sw.fail(err)
	}
	if err := spoolInts(sw.spools[secIDSlab], f.idSlab); err != nil {
		return sw.fail(err)
	}
	if err := spoolU64s(sw.spools[secResSlab], f.resSlab); err != nil {
		return sw.fail(err)
	}
	if err := spoolU64s(sw.spools[secMaskSlab], f.maskSlab); err != nil {
		return sw.fail(err)
	}
	return nil
}

// Finish builds the last partial chunk, closes the prefix arrays, and
// assembles the v4 arena image onto out (header, section table, then each
// spool streamed through in section order). The spool directory is removed
// on return. The image always carries id tables (flags bit0 set).
func (sw *FrozenStreamWriter) Finish(out io.Writer) error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.flushChunk(); err != nil {
		return err
	}
	if err := spoolI32s(sw.spools[secChildStart], []int32{int32(sw.nChild)}, 0); err != nil {
		return sw.fail(err)
	}
	if err := spoolI32s(sw.spools[secLeafStart], []int32{int32(sw.nLeaf)}, 0); err != nil {
		return sw.fail(err)
	}
	if err := spoolI32s(sw.spools[secIDStart], []int32{int32(sw.n)}, 0); err != nil {
		return sw.fail(err)
	}

	c := arenaCounts{
		length: uint64(sw.length), flags: 1, n: sw.n,
		nGroups: sw.nGroups, nNodes: sw.nNodes, nRoots: sw.nRoots,
		nChild: sw.nChild, nLeaf: sw.nLeaf, nTop: sw.nTop,
	}
	table, _ := c.sectionTable()

	bw := bufio.NewWriterSize(out, 1<<16)
	var u8 [8]byte
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u8[:], v)
		_, err := bw.Write(u8[:])
		return err
	}
	if _, err := bw.WriteString(codecMagic); err != nil {
		return sw.fail(err)
	}
	if _, err := bw.Write([]byte{codecVersionArena, 0, 0, 0}); err != nil {
		return sw.fail(err)
	}
	for _, v := range []uint64{c.length, c.flags, c.n, c.nGroups, c.nNodes, c.nRoots, c.nChild, c.nLeaf, c.nTop, arenaSectionCount} {
		if err := putU64(v); err != nil {
			return sw.fail(err)
		}
	}
	for _, s := range table {
		if err := putU64(s[0]); err != nil {
			return sw.fail(err)
		}
		if err := putU64(s[1]); err != nil {
			return sw.fail(err)
		}
	}
	cur := uint64(arenaHeaderSize)
	for i, sp := range sw.spools {
		var zeros [8]byte
		for cur < table[i][0] {
			n := table[i][0] - cur
			if n > 8 {
				n = 8
			}
			if _, err := bw.Write(zeros[:n]); err != nil {
				return sw.fail(err)
			}
			cur += n
		}
		if err := sp.bw.Flush(); err != nil {
			return sw.fail(err)
		}
		if _, err := sp.f.Seek(0, io.SeekStart); err != nil {
			return sw.fail(err)
		}
		copied, err := io.Copy(bw, sp.f)
		if err != nil {
			return sw.fail(err)
		}
		if uint64(copied) != table[i][1] {
			return sw.fail(fmt.Errorf("core: spool %d holds %d bytes, layout wants %d", i, copied, table[i][1]))
		}
		cur += uint64(copied)
	}
	if err := bw.Flush(); err != nil {
		return sw.fail(err)
	}
	sw.cleanup()
	sw.err = fmt.Errorf("core: FrozenStreamWriter already finished")
	return nil
}

// Abort discards all spooled state and removes the temp directory.
func (sw *FrozenStreamWriter) Abort() {
	sw.cleanup()
	if sw.err == nil {
		sw.err = fmt.Errorf("core: FrozenStreamWriter aborted")
	}
}

func (sw *FrozenStreamWriter) cleanup() {
	for _, sp := range sw.spools {
		if sp != nil && sp.f != nil {
			sp.f.Close()
			sp.f = nil
		}
	}
	if sw.dir != "" {
		os.RemoveAll(sw.dir)
		sw.dir = ""
	}
}

func spoolI32s(sp *spool, vals []int32, off int32) error {
	var chunk [512 * 4]byte
	for len(vals) > 0 {
		n := len(chunk) / 4
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[i*4:], uint32(vals[i]+off))
		}
		if _, err := sp.bw.Write(chunk[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func spoolU64s(sp *spool, vals []uint64) error {
	var chunk [512 * 8]byte
	for len(vals) > 0 {
		n := len(chunk) / 8
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[i*8:], vals[i])
		}
		if _, err := sp.bw.Write(chunk[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func spoolInts(sp *spool, vals []int) error {
	var chunk [512 * 8]byte
	for len(vals) > 0 {
		n := len(chunk) / 8
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[i*8:], uint64(int64(vals[i])))
		}
		if _, err := sp.bw.Write(chunk[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

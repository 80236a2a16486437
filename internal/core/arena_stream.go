package core

import (
	"bufio"
	"bytes"
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
	forest forestWriter // onto the spools
	err    error
}

// spool is one section's temp file behind a buffered writer.
type spool struct {
	f  *os.File
	bw *bufio.Writer
}

func (sp *spool) Write(p []byte) (int, error) { return sp.bw.Write(p) }

// WriteTo copies everything written to the spool onto w.
func (sp *spool) WriteTo(w io.Writer) (int64, error) {
	if err := sp.bw.Flush(); err != nil {
		return 0, err
	}
	if _, err := sp.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	return io.Copy(w, sp.f)
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
	sw.forest.length = uint64(length)
	for i := range sw.spools {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("sec%02d", i)))
		if err != nil {
			sw.Abort()
			return nil, err
		}
		sw.spools[i] = &spool{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
		sw.forest.secs[i] = sw.spools[i]
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
func (sw *FrozenStreamWriter) Len() int { return int(sw.forest.n) + len(sw.ids) }

// Length returns the code length in bits the stream was created for.
func (sw *FrozenStreamWriter) Length() int { return sw.length }

func (sw *FrozenStreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
		sw.cleanup()
	}
	return sw.err
}

// flushChunk builds the buffered tuples and lays their arenas onto the
// spools after the chunks before them.
func (sw *FrozenStreamWriter) flushChunk() error {
	if len(sw.ids) == 0 {
		return nil
	}
	f := BuildFrozen(sw.length, sw.rows, sw.ids, sw.opts)
	sw.rows = sw.rows[:0]
	sw.ids = sw.ids[:0]
	if err := sw.forest.add(f); err != nil {
		return sw.fail(err)
	}
	return nil
}

// Finish builds the last partial chunk and assembles the v4 arena image onto
// out (header, section table, then each spool streamed through in section
// order). The spool directory is removed on return. The image always carries
// id tables (flags bit0 set).
func (sw *FrozenStreamWriter) Finish(out io.Writer) error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.flushChunk(); err != nil {
		return err
	}
	if err := sw.forest.finish(out); err != nil {
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

// forestWriter lays whole arenas one after another into one v4 image — the
// chunks of a FrozenStreamWriter, the partitions of a MapReduce build (Forest).
// Each part's sections go onto the matching section buffer shifted by the
// totals of the parts before it (putSection), so the result is a forest whose
// hierarchies are the parts': roots scattered, every child still after its
// parent, every group and id reference still in range.
type forestWriter struct {
	arenaCounts // the totals so far
	secs        [arenaSectionCount]interface {
		io.Writer
		io.WriterTo // everything written, once
	}
}

// add lays part after the arenas added so far.
func (fw *forestWriter) add(part *FrozenIndex) error {
	if uint64(part.length) != fw.length {
		return fmt.Errorf("core: %d-bit arena in a %d-bit forest", part.length, fw.length)
	}
	base, pc := fw.arenaCounts, part.counts(true)
	fw.nGroups += pc.nGroups
	fw.nNodes += pc.nNodes
	fw.nRoots += pc.nRoots
	fw.nChild += pc.nChild
	fw.nLeaf += pc.nLeaf
	fw.nTop += pc.nTop
	fw.n += pc.n
	const maxCount = 1<<31 - 2
	for _, v := range []uint64{fw.nGroups, fw.nNodes, fw.nChild, fw.nLeaf, fw.n} {
		if v > maxCount {
			return fmt.Errorf("core: forest arena exceeds 2^31 elements")
		}
	}
	for sec, w := range fw.secs {
		if err := part.putSection(w, sec, base, false); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the prefix arrays with the totals and writes the image onto
// out. The image always carries id tables (flags bit0 set).
func (fw *forestWriter) finish(out io.Writer) error {
	for _, s := range [][2]uint64{{secChildStart, fw.nChild}, {secLeafStart, fw.nLeaf}, {secIDStart, fw.n}} {
		if err := putInt32s(fw.secs[s[0]], []int32{int32(s[1])}, 0); err != nil {
			return err
		}
	}
	c := fw.arenaCounts
	c.flags = 1
	table, _ := c.sectionTable()
	return c.write(out, func(sec int, w io.Writer) error {
		n, err := fw.secs[sec].WriteTo(w)
		if err == nil && uint64(n) != table[sec][1] {
			err = fmt.Errorf("core: forest section %d holds %d bytes, layout wants %d", sec, n, table[sec][1])
		}
		return err
	})
}

// Forest lays the arenas one after another into one: a forest whose
// hierarchies are the parts', over the union of their tuples, which answers
// every search with the union of the parts' answers. It is the arena a
// FrozenStreamWriter writes when its chunks build to these parts, byte for
// byte. The parts must share a code length and carry their id tables.
func Forest(parts ...*FrozenIndex) (*FrozenIndex, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: a forest of no arenas")
	}
	var bufs [arenaSectionCount]bytes.Buffer
	fw := forestWriter{arenaCounts: arenaCounts{length: uint64(parts[0].length)}}
	for i := range bufs {
		fw.secs[i] = &bufs[i]
	}
	for _, p := range parts {
		if err := fw.add(p); err != nil {
			return nil, err
		}
	}
	var img bytes.Buffer
	if err := fw.finish(&img); err != nil {
		return nil, err
	}
	return DecodeArenaBytes(img.Bytes())
}

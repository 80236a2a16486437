package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
	"time"
)

// writeLog records every Write it is handed, so a test can assert on the
// syscalls a frame would cost on a raw connection.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// allocatedBy reports the heap bytes f allocates (not what it retains): the
// least of three runs, since TotalAlloc is process-wide and a runtime or
// testing goroutine now and then allocates a few KiB while f runs — noise
// that only ever adds, where what f itself allocates is the same each run.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWriteFrameIsOneWrite: a frame of any size reaches the writer as exactly
// one Write carrying header and payload — on a raw connection one syscall, one
// segment, one wake-up of the peer — and a large payload is copied once, into
// the frame, not a second time through another buffer.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 1, 20, 4095, 4096, 4097, 1 << 20} {
		payload := bytes.Repeat([]byte{0xa5}, n)
		var w writeLog
		if err := WriteFrame(&w, MsgSearchOK, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 {
			t.Fatalf("payload %d: %d Writes, want exactly 1", n, len(w.writes))
		}
		got := w.writes[0]
		if len(got) != 5+n || binary.BigEndian.Uint32(got) != uint32(n+1) || MsgType(got[4]) != MsgSearchOK || !bytes.Equal(got[5:], payload) {
			t.Fatalf("payload %d: frame bytes differ from header+payload", n)
		}
	}
	big := make([]byte, 1<<20)
	WriteFrame(io.Discard, MsgSearchOK, big) // fill the pool before measuring
	const runs = 8
	per := allocatedBy(func() {
		for i := 0; i < runs; i++ {
			WriteFrame(io.Discard, MsgSearchOK, big)
		}
	}) / runs
	if per > 3*uint64(len(big))/2 {
		t.Fatalf("a 1 MiB frame allocates %d bytes a write: the payload is copied more than once", per)
	}
	small := make([]byte, 20)
	if per := allocatedBy(func() {
		for i := 0; i < 1000; i++ {
			WriteFrame(io.Discard, MsgSearch, small)
		}
	}) / 1000; per > 64 {
		t.Fatalf("a 20-byte frame allocates %d bytes a write; the frame buffer should be pooled", per)
	}
}

// hostileHeader claims a MaxFrame body and sends none of it.
var hostileHeader = []byte{byte(MaxFrame >> 24), byte(MaxFrame >> 16 & 0xff), byte(MaxFrame >> 8 & 0xff), byte(MaxFrame & 0xff)}

// TestReadFrameAllocatesAsBytesArrive: a length prefix is a claim, not data.
// A peer that sends a 64 MiB header and then nothing — EOF, or a stall that
// holds the connection open — must not make the reader allocate 64 MiB.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	const limit = 1 << 20
	if got := allocatedBy(func() {
		if _, _, err := ReadFrame(bytes.NewReader(hostileHeader)); err == nil {
			t.Error("header-only frame accepted")
		}
	}); got >= limit {
		t.Fatalf("64 MiB header then EOF allocated %d bytes, want under %d", got, limit)
	}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		_, _, err := ReadFrame(pr)
		done <- err
	}()
	// The header and a little body arrive; then the sender stalls.
	if _, err := pw.Write(append(append([]byte(nil), hostileHeader...), make([]byte, 100)...)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("ReadFrame returned (%v) while the body was still owed", err)
	case <-time.After(50 * time.Millisecond):
	}
	var stalled runtime.MemStats
	runtime.ReadMemStats(&stalled)
	if got := stalled.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("64 MiB header then a stall pins %d bytes, want under %d", got, limit)
	}
	pw.Close()
	if err := <-done; err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestReadFrameGrowsLongFrames: frames on either side of every growth step
// round-trip byte for byte, delivered in dribbles.
func TestReadFrameGrowsLongFrames(t *testing.T) {
	for _, n := range []int{readStep - 2, readStep - 1, readStep, 2*readStep - 1, 2 * readStep, 5*readStep + 3} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgInsert, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(dribble{&buf})
		if err != nil || typ != MsgInsert || !bytes.Equal(got, payload) {
			t.Fatalf("payload %d: type %v, %d bytes back, err %v", n, typ, len(got), err)
		}
	}
}

// dribble hands out at most 1 KiB a Read, as a slow connection would.
type dribble struct{ r io.Reader }

func (r dribble) Read(p []byte) (int, error) {
	if len(p) > 1024 {
		p = p[:1024]
	}
	return r.r.Read(p)
}

//go:build linux

package core

import (
	"fmt"
	"os"
	"syscall"
)

// MapFrozen opens a HADX v4 arena file and aliases the index straight into a
// read-only mmap of it: load time is O(validation) — a few int32 scans — no
// matter how many codes the file holds, and the slabs stay in the page cache
// rather than the Go heap, shared across processes serving the same shard.
// Close the returned index to release the mapping.
//
// Hosts that cannot alias the little-endian layout (big-endian or 32-bit
// int) fall back to an eager copying decode with no mapping to close.
func MapFrozen(path string) (*FrozenIndex, error) {
	return MapFrozenAt(path, 0)
}

// MapFrozenAt is MapFrozen for an arena embedded at byte offset off inside a
// larger file (a HASN snapshot). The offset must be 8-aligned so the aliased
// slabs keep their natural alignment; the whole file is mapped (pages are
// only faulted in as touched) and released by Close.
func MapFrozenAt(path string, off int64) (*FrozenIndex, error) {
	if !canAliasArena {
		return mapFrozenEager(path, off)
	}
	if off < 0 || off%8 != 0 {
		return nil, fmt.Errorf("core: arena offset %d not 8-aligned", off)
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= off || size > 1<<46 {
		return nil, fmt.Errorf("core: arena file %q is %d bytes, arena at %d", path, size, off)
	}
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("core: mmap %q: %w", path, err)
	}
	f, err := DecodeArenaBytes(data[off:])
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	f.mapping = data
	f.munmap = syscall.Munmap
	return f, nil
}

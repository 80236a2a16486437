//go:build !linux

package core

// MapFrozenAt loads a HADX v4 arena at byte offset off of a file (a HASN
// snapshot; 0 for a bare arena). On platforms without the mmap fast path it
// decodes eagerly onto the heap — same index, same results, no mapping to
// close.
func MapFrozenAt(path string, off int64) (*FrozenIndex, error) {
	return mapFrozenEager(path, off)
}

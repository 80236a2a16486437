package core

import (
	"haindex/internal/bitvec"
)

// Engine is the surface a search engine over a leaf arena implements to
// plug into the core query machinery. The Index interface itself is sealed
// (its searchWith method is unexported so the walk internals stay private),
// so an engine implements Engine instead and is adapted with AsIndex. The one
// engine in this package is the brute scan, GroupView; multi-index hashing
// (internal/mih) is the other. The adapted index runs under Searcher,
// SearchBatch, SearchCodesBatch, and TopK's radius escalation unchanged.
type Engine interface {
	// Groups returns the leaf arena the engine indexes: its code length,
	// its distinct codes and their tuple ids. The engine's searches report
	// qualifying groups as indexes into it, and the adapter resolves ids or
	// codes from it.
	Groups() GroupView
	// NewScratch returns a fresh per-searcher scratch. Each Searcher bound
	// to the adapted index creates exactly one scratch lazily and reuses it,
	// mirroring the Searcher-as-unit-of-concurrency contract: scratches are
	// never shared across goroutines, the engine itself is read-only.
	NewScratch() EngineScratch
}

// EngineScratch is one searcher's mutable state over an Engine.
type EngineScratch interface {
	// Search runs one Hamming-select: it appends to out the index in the
	// engine's Groups of every qualifying distinct code, once each, and
	// returns the extended slice. Work done is accumulated into stats.
	Search(q bitvec.Code, h int, stats *SearchStats, out []int32) []int32
}

// EngineIndex adapts an Engine to the sealed Index interface. Create with
// AsIndex. The engine's group indexes land in the searcher's reusable group
// buffer, so steady-state search over an adapted engine stays
// allocation-free when the engine's own scratch is.
type EngineIndex struct {
	eng Engine
	grp GroupView
}

// AsIndex wraps an external engine as a core.Index.
func AsIndex(e Engine) *EngineIndex { return &EngineIndex{eng: e, grp: e.Groups()} }

// Engine returns the wrapped engine (e.g. for codec type switches).
func (x *EngineIndex) Engine() Engine { return x.eng }

// Length returns the code length L in bits.
func (x *EngineIndex) Length() int { return x.grp.Length }

// Len returns the number of indexed tuples.
func (x *EngineIndex) Len() int { return len(x.grp.IDs) }

// searchWith implements Index: the engine's qualifying groups, as indexes
// into its arena.
func (x *EngineIndex) searchWith(sr *Searcher, q bitvec.Code, h int) (GroupView, []int32) {
	if sr.xscratch == nil {
		sr.xscratch = x.eng.NewScratch()
	}
	sr.groups = sr.xscratch.Search(q, h, &sr.Stats, sr.groups[:0])
	return x.grp, sr.groups
}

package core

import (
	"haindex/internal/bitvec"
)

// Engine is an exact Hamming-select engine over one leaf arena: the frozen
// HA-Index walk (FrozenIndex), the brute scan (GroupView), and multi-index
// hashing (internal/mih). Searcher, SearchBatch and SearchCodesBatch run
// over any Engine; many Searchers may query the same Engine concurrently —
// the contract under which a broadcast index is shared by every reducer of a
// MapReduce join (Section 5). The paper's pointer forms, the Static and
// Dynamic HA-Index, run on a PointerSearcher instead.
type Engine interface {
	// Groups returns the leaf arena the engine indexes: its code length,
	// its distinct codes and their tuple ids. The engine's searches report
	// qualifying groups as indexes into it, and the Searcher resolves ids or
	// codes from it.
	Groups() GroupView
	// NewScratch returns a fresh per-searcher scratch. Each Searcher holds
	// exactly one and reuses it — the Searcher is the unit of concurrency:
	// scratches are never shared across goroutines, the engine itself is
	// read-only.
	NewScratch() EngineScratch
}

// EngineScratch is one searcher's mutable state over an Engine.
type EngineScratch interface {
	// Search runs one Hamming-select: it appends to out the index in the
	// engine's Groups of every qualifying distinct code, once each, and
	// returns the extended slice. Work done is accumulated into stats. The
	// query has the engine's code length; Searcher checks it.
	Search(q bitvec.Code, h int, stats *SearchStats, out []int32) []int32
}

// Index is Engine under its older name, kept only because the benchmark
// harness still spells it. ROADMAP item 2(a) deletes it.
type Index = Engine

// AsIndex returns e unchanged, kept only because the benchmark harness still
// calls it. ROADMAP item 2(a) deletes it.
func AsIndex(e Engine) Engine { return e }

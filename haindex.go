// Package haindex is a Go implementation of the HA-Index and its
// Hamming-distance similarity-search operators, reproducing Tang, Yu, Aref,
// Malluhi & Ouzzani, "Efficient Processing of Hamming-Distance-Based
// Similarity-Search Queries Over MapReduce" (EDBT 2015).
//
// The library answers two query flavors over fixed-length binary codes
// produced by a learned similarity hash:
//
//   - Hamming-select: all tuples whose codes are within Hamming distance h
//     of a query code (Definition 1);
//   - Hamming-join: all pairs across two datasets within distance h
//     (Definition 2), including a MapReduce execution with histogram-
//     balanced partitioning and index broadcast (Section 5).
//
// The primary index is the Dynamic HA-Index: codes are Gray-order sorted so
// that similar codes cluster, a sliding window extracts the maximal shared
// fixed-length subsequences (FLSSeq) into a hierarchy of pattern nodes, and
// range queries prune whole subtrees by the Hamming downward-closure
// property while charging each shared pattern a single XOR. The package also
// provides the Static HA-Index, a Radix-Tree approach, the published
// baselines (MultiHashTable, HEngine, HmSearch, E2LSH, LSB-Tree, PGBJ), and
// approximate kNN-select/kNN-join drivers built on Hamming search.
//
// Quick start:
//
//	data := haindex.Generate(haindex.NUSWide, 10000, 1)
//	hashFn, _ := haindex.LearnSpectralHash(data[:1000], 32)
//	codes := haindex.HashAll(hashFn, data)
//	idx := haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{})
//	ids := idx.Search(hashFn.Hash(query), 3)
package haindex

import (
	"fmt"
	"io"

	"haindex/internal/baseline"
	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/dfs"
	"haindex/internal/hash"
	"haindex/internal/histo"
	"haindex/internal/knn"
	"haindex/internal/mih"
	"haindex/internal/mrjoin"
	"haindex/internal/planner"
	"haindex/internal/radix"
	"haindex/internal/relop"
	"haindex/internal/tanimoto"
	"haindex/internal/vector"
)

// Core data types.
type (
	// Code is a fixed-length binary code (a string of 0s and 1s produced by
	// a similarity hash function).
	Code = bitvec.Code
	// Pattern is a partially specified code — an FLSSeq with a mask of
	// fixed positions.
	Pattern = bitvec.Pattern
	// Vec is a dense d-dimensional feature vector.
	Vec = vector.Vec
)

// Indexes.
type (
	// DynamicIndex is the Dynamic HA-Index (Section 4.4), the paper's
	// primary contribution.
	DynamicIndex = core.DynamicIndex
	// StaticIndex is the Static HA-Index with fixed bit segmentation
	// (Section 4.3).
	StaticIndex = core.StaticIndex
	// FrozenIndex is the immutable compiled form of a Dynamic HA-Index:
	// the pattern DAG flattened into contiguous arrays for cache-friendly,
	// allocation-free search and near-single-copy snapshot load.
	FrozenIndex = core.FrozenIndex
	// IndexOptions configures HA-Index construction (window, depth,
	// insert-buffer size).
	IndexOptions = core.Options
	// SearchStats reports per-query work (distance computations, nodes
	// visited).
	SearchStats = core.SearchStats
	// SearchIndex is an exact Hamming-select engine over one leaf arena that
	// the reusable Searcher drives: a FrozenIndex (FreezeIndex compiles a
	// DynamicIndex into one), or an MIHIndex.
	SearchIndex = core.Engine
	// Searcher is a reusable, allocation-free query engine over one
	// SearchIndex. One Searcher per goroutine; the index may be shared.
	Searcher = core.Searcher
	// RadixTree is the PATRICIA-trie approach of Section 4.2.
	RadixTree = radix.Tree
)

// Baselines.
type (
	// NestedLoop is the linear XOR-and-count scan.
	NestedLoop = baseline.NestedLoop
	// MultiHash is Manku et al.'s multi-hash-table index (MH-4, MH-10).
	MultiHash = baseline.MultiHash
	// HEngine is Liu et al.'s sorted-signature-table engine.
	HEngine = baseline.HEngine
	// HmSearch is Zhang et al.'s signature-enumeration index.
	HmSearch = baseline.HmSearch
)

// Hashing.
type (
	// HashFunc maps feature vectors to binary codes.
	HashFunc = hash.Func
	// SpectralHash is the learned, data-dependent hash the paper uses.
	SpectralHash = hash.Spectral
	// SimHash is Charikar's random-hyperplane hash.
	SimHash = hash.SimHash
)

// Datasets.
type (
	// DatasetProfile describes a synthetic dataset family.
	DatasetProfile = dataset.Profile
)

// The paper's three evaluation dataset profiles.
var (
	NUSWide = dataset.NUSWide
	Flickr  = dataset.Flickr
	DBPedia = dataset.DBPedia
)

// kNN.
type (
	// Neighbor is one kNN result.
	Neighbor = knn.Neighbor
	// HammingKNN answers approximate kNN-select via Hamming threshold
	// escalation over any Hamming index.
	HammingKNN = knn.HammingKNN
	// E2LSH is the p-stable LSH baseline.
	E2LSH = knn.E2LSH
	// E2LSHConfig tunes E2LSH.
	E2LSHConfig = knn.E2LSHConfig
	// LSBTree is the Z-order + B-tree baseline forest.
	LSBTree = knn.LSBTree
	// LSBConfig tunes the LSB forest.
	LSBConfig = knn.LSBConfig
)

// Distributed joins.
type (
	// JoinOptions configures the MapReduce pipelines.
	JoinOptions = mrjoin.Options
	// Preprocessed carries the learned hash and partition pivots.
	Preprocessed = mrjoin.Preprocessed
	// GlobalIndex is the merged distributed HA-Index over table R.
	GlobalIndex = mrjoin.GlobalIndex
	// JoinResult is the output of one distributed Hamming-join.
	JoinResult = mrjoin.JoinResult
	// Pair is one Hamming-join result pair.
	Pair = mrjoin.Pair
	// SelectResult is the output of one distributed Hamming-select batch.
	SelectResult = mrjoin.SelectResult
)

// ---- Codes ----

// NewCode returns an all-zero n-bit code.
func NewCode(n int) Code { return bitvec.New(n) }

// CodeFromString parses a code from a string of '0' and '1' (spaces
// ignored).
func CodeFromString(s string) (Code, error) { return bitvec.FromString(s) }

// MustCode is CodeFromString panicking on error; for literals.
func MustCode(s string) Code { return bitvec.MustFromString(s) }

// Distance returns the Hamming distance between two equal-length codes.
func Distance(a, b Code) int { return a.Distance(b) }

// ---- Index construction ----

// BuildDynamicIndex bulkloads a Dynamic HA-Index (Algorithm 1, H-Build)
// over the codes; ids default to positions when nil.
func BuildDynamicIndex(codes []Code, ids []int, opts IndexOptions) *DynamicIndex {
	return core.BuildDynamic(codes, ids, opts)
}

// BuildStaticIndex builds a Static HA-Index with the given segment width in
// bits (0 selects 8).
func BuildStaticIndex(codes []Code, ids []int, segWidth int) *StaticIndex {
	return core.BuildStatic(codes, ids, segWidth)
}

// FreezeIndex compiles a Dynamic HA-Index into its immutable frozen form.
// Buffered inserts are flushed first, so the frozen index always covers every
// tuple the dynamic index held.
func FreezeIndex(x *DynamicIndex) *FrozenIndex { return core.Freeze(x) }

// ---- Query engine ----

// NewSearcher returns a reusable query engine over idx. Steady-state
// searches are allocation-free; results alias scratch valid until the next
// call. Each goroutine needs its own Searcher, but they may all share one
// read-only index.
func NewSearcher(idx SearchIndex) *Searcher { return core.NewSearcher(idx) }

// SearchBatch answers a batch of Hamming-select queries with a pool of
// `workers` Searchers over the shared index (workers <= 0 selects
// GOMAXPROCS). Results are positionally aligned with queries; the returned
// stats aggregate work across all workers.
func SearchBatch(idx SearchIndex, queries []Code, h, workers int) ([][]int, SearchStats) {
	return core.SearchBatch(idx, queries, h, workers)
}

// SearchCodesBatch is SearchBatch returning the matching codes themselves
// instead of tuple ids.
func SearchCodesBatch(idx SearchIndex, queries []Code, h, workers int) ([][]Code, SearchStats) {
	return core.SearchCodesBatch(idx, queries, h, workers)
}

// BuildRadixTree builds the Radix-Tree (PATRICIA) index of Section 4.2.
func BuildRadixTree(codes []Code, ids []int) *RadixTree {
	return radix.Build(codes, ids)
}

// MergeIndexes merges per-partition Dynamic HA-Indexes into a global index
// (Section 5.2). Inputs with disjoint code sets are grafted without touching
// data; overlapping inputs trigger a rebuild.
func MergeIndexes(parts ...*DynamicIndex) *DynamicIndex { return core.Merge(parts...) }

// NewNestedLoop, NewMultiHash, NewHEngine and NewHmSearch construct the
// centralized baselines of Section 6.

// NewNestedLoop builds the linear-scan baseline.
func NewNestedLoop(codes []Code, ids []int) *NestedLoop { return baseline.NewNestedLoop(codes, ids) }

// NewMultiHash builds Manku et al.'s index over `blocks` code blocks keyed
// on every combination of `matched` blocks — C(blocks, matched) tables.
func NewMultiHash(codes []Code, ids []int, blocks, matched int) (*MultiHash, error) {
	return baseline.NewMultiHash(codes, ids, blocks, matched)
}

// NewMH4 builds the paper's MH-4 configuration (4 tables).
func NewMH4(codes []Code, ids []int) (*MultiHash, error) { return baseline.NewMH4(codes, ids) }

// NewMH10 builds the paper's MH-10 configuration (10 tables).
func NewMH10(codes []Code, ids []int) (*MultiHash, error) { return baseline.NewMH10(codes, ids) }

// NewHEngine builds HEngine designed for thresholds up to hmax.
func NewHEngine(codes []Code, ids []int, hmax int) (*HEngine, error) {
	return baseline.NewHEngine(codes, ids, hmax)
}

// NewHmSearch builds the HmSearch signature index for thresholds up to hmax.
func NewHmSearch(codes []Code, ids []int, hmax int) (*HmSearch, error) {
	return baseline.NewHmSearch(codes, ids, hmax)
}

// ---- Hashing ----

// LearnSpectralHash learns a bits-bit spectral hash function from a sample
// of the dataset (Weiss et al., the paper's choice).
func LearnSpectralHash(sample []Vec, bits int) (*SpectralHash, error) {
	return hash.LearnSpectral(sample, bits)
}

// NewSimHash returns a random-hyperplane hash over d-dimensional inputs.
func NewSimHash(d, bits int, seed int64) *SimHash { return hash.NewSimHash(d, bits, seed) }

// HashAll maps a batch of vectors through a hash function.
func HashAll(f HashFunc, vs []Vec) []Code { return hash.HashAll(f, vs) }

// ---- Datasets ----

// Generate produces n synthetic vectors from a dataset profile,
// deterministically from seed.
func Generate(p DatasetProfile, n int, seed int64) []Vec { return dataset.Generate(p, n, seed) }

// ScaleUp grows a dataset by the paper's ×s frequency-successor technique
// while preserving its distribution.
func ScaleUp(d []Vec, s int) []Vec { return dataset.ScaleUp(d, s) }

// Sample draws a uniform reservoir sample of size k.
func Sample(d []Vec, k int, seed int64) []Vec { return dataset.Reservoir(d, k, seed) }

// ---- Partitioning ----

// Pivots derives equi-depth Gray-order partition pivots from sample codes
// (Section 5.1).
func Pivots(sample []Code, parts int) []Code { return histo.Pivots(sample, parts) }

// PartitionOf returns the partition index of a code under the pivots.
func PartitionOf(pivots []Code, c Code) int { return histo.PartitionID(pivots, c) }

// ---- kNN ----

// NewHammingKNN wires a Hamming index and hash function to the original
// vectors for approximate kNN-select with threshold escalation.
func NewHammingKNN(idx knn.HammingSearcher, hasher knn.Hasher, data []Vec) *HammingKNN {
	return knn.NewHammingKNN(idx, hasher, data)
}

// ExactKNN returns the exact k nearest neighbors by linear scan.
func ExactKNN(data []Vec, q Vec, k int) []Neighbor { return knn.Exact(data, q, k) }

// NewE2LSH builds the p-stable LSH baseline.
func NewE2LSH(data []Vec, cfg E2LSHConfig) *E2LSH { return knn.NewE2LSH(data, cfg) }

// NewLSBTree builds the LSB-Tree baseline forest.
func NewLSBTree(data []Vec, cfg LSBConfig) *LSBTree { return knn.NewLSBTree(data, cfg) }

// Recall measures |approx ∩ exact| / |exact| over neighbor id sets.
func Recall(approx, exact []Neighbor) float64 { return knn.Recall(approx, exact) }

// ---- Distributed Hamming-join (Section 5) ----

// PrepareJoin runs the preprocessing phase: sampling, hash learning and
// pivot selection over both tables.
func PrepareJoin(r, s []Vec, opt JoinOptions) (*Preprocessed, error) {
	return mrjoin.Preprocess(r, s, opt)
}

// BuildGlobalIndex runs the first MapReduce job: partition R by Gray-order
// pivots, H-Build a local HA-Index per partition, and merge them.
func BuildGlobalIndex(r []Vec, pre *Preprocessed, opt JoinOptions) (*GlobalIndex, error) {
	return mrjoin.BuildGlobalIndex(r, pre, opt)
}

// HammingJoin runs the second MapReduce job joining S against the broadcast
// global index. Option A ships the index with leaf id tables; Option B
// ships a leafless index and recovers ids in a post-processing hash join
// (Section 5.3).
func HammingJoin(s []Vec, g *GlobalIndex, pre *Preprocessed, optionB bool, opt JoinOptions) (*JoinResult, error) {
	if optionB {
		return mrjoin.HammingJoinB(s, g, pre, opt)
	}
	return mrjoin.HammingJoinA(s, g, pre, opt)
}

// HammingSelect answers a batch of Hamming-select queries as one MapReduce
// job over the broadcast global index: queries are partitioned round-robin
// across reducers, and each reducer drains its share through the batched
// Searcher engine.
func HammingSelect(queries []Vec, g *GlobalIndex, pre *Preprocessed, opt JoinOptions) (*SelectResult, error) {
	return mrjoin.HammingSelect(queries, g, pre, opt)
}

// HammingJoinLargeR is Option B's large-R variant: the id-recovery join runs
// as one more MapReduce repartition hash-join instead of in memory.
func HammingJoinLargeR(r, s []Vec, g *GlobalIndex, pre *Preprocessed, opt JoinOptions) (*JoinResult, error) {
	return mrjoin.HammingJoinBLarge(r, s, g, pre, opt)
}

// PMHJoin runs the parallel MultiHashTable baseline join (Manku et al.
// extended to MapReduce, PMH-k) for comparison with the HA-Index plans.
func PMHJoin(r, s []Vec, pre *Preprocessed, tables int, opt JoinOptions) (*JoinResult, error) {
	return mrjoin.PMHJoin(r, s, pre, tables, opt)
}

// PGBJResult is the output of the exact distributed kNN-join baseline.
type PGBJResult = mrjoin.PGBJResult

// PGBJ runs Lu et al.'s exact parallel kNN-join baseline.
func PGBJ(r, s []Vec, k int, opt JoinOptions) (*PGBJResult, error) {
	return mrjoin.PGBJ(r, s, k, opt)
}

// ---- Serialization ----

// DecodeFrozenIndex reads a frozen index previously written with
// (*FrozenIndex).EncodeArena — the one index file format, HADX v4 — onto the
// heap, where the index aliases the bytes read. An image of any other version
// is refused, naming it.
func DecodeFrozenIndex(r io.Reader) (*FrozenIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("haindex: reading index: %w", err)
	}
	return core.DecodeArenaBytes(data)
}

// ---- Similarity-aware relational operators (Section 7 direction) ----

// SimilaritySearcher is the contract the relational operators accept.
type SimilaritySearcher = relop.Searcher

// IntersectRow is one similarity-intersection result.
type IntersectRow = relop.IntersectRow

// SemiJoin returns the probe positions having at least one indexed tuple
// within Hamming distance h.
func SemiJoin(idx SimilaritySearcher, probe []Code, h int) []int {
	return relop.SemiJoin(idx, probe, h)
}

// AntiJoin returns the probe positions having no indexed tuple within h.
func AntiJoin(idx SimilaritySearcher, probe []Code, h int) []int {
	return relop.AntiJoin(idx, probe, h)
}

// Intersect computes the similarity-aware intersection of the probe codes
// with the indexed dataset.
func Intersect(idx SimilaritySearcher, probe []Code, h int) []IntersectRow {
	return relop.Intersect(idx, probe, h)
}

// Subsumes reports whether every probe tuple has an indexed tuple within h.
func Subsumes(idx SimilaritySearcher, probe []Code, h int) bool {
	return relop.Subsumes(idx, probe, h)
}

// ---- Tanimoto similarity search (chemical fingerprints) ----

// TanimotoIndex answers Tanimoto-threshold queries over binary fingerprints
// by reduction to per-popcount Hamming range queries.
type TanimotoIndex = tanimoto.Index

// TanimotoMatch is one Tanimoto search result.
type TanimotoMatch = tanimoto.Match

// NewTanimotoIndex indexes binary fingerprints for Tanimoto search.
func NewTanimotoIndex(prints []Code, ids []int, opts IndexOptions) (*TanimotoIndex, error) {
	return tanimoto.New(prints, ids, opts)
}

// Tanimoto returns the Tanimoto coefficient of two fingerprints.
func Tanimoto(a, b Code) float64 { return tanimoto.Similarity(a, b) }

// ---- kNN-join ----

// KNNJoinResult maps probe indexes to neighbor lists.
type KNNJoinResult = knn.JoinResult

// ExactKNNJoin computes the exact kNN-join by linear scan (ground truth).
func ExactKNNJoin(data, probe []Vec, k int) KNNJoinResult { return knn.ExactJoin(data, probe, k) }

// KNNJoinRecall averages per-tuple recall of an approximate join.
func KNNJoinRecall(approx, exact KNNJoinResult) float64 { return knn.JoinRecall(approx, exact) }

// ---- Cost-based access-path planning ----

// Planner routes each query to the cheapest of the HA-Index walk,
// multi-index hashing, and the linear scan, using a per-threshold cost model
// counted once, at build time: the work sample probes report, priced in
// scanned groups, with no clock read.
type Planner = planner.Planner

// PlannerPlan is one routing decision with its EXPLAIN fields.
type PlannerPlan = planner.Plan

// PlannerOptions seeds the planner's sample probes; the same codes and seed
// give the same plan table.
type PlannerOptions = planner.Options

// PlannerStrategy names a planner access path.
type PlannerStrategy = planner.Strategy

// The planner's access paths.
const (
	UseHA   = planner.UseHA
	UseMIH  = planner.UseMIH
	UseScan = planner.UseScan
)

// NewPlanner builds the full engine set (frozen HA-Index, MIH, scan) over
// the codes and returns its planner.
func NewPlanner(codes []Code, ids []int, opts PlannerOptions) (*Planner, error) {
	return planner.Auto(codes, ids, opts)
}

// ---- Multi-index hashing engine ----

// MIHIndex is the frozen multi-index-hashing engine: Norouzi et al.'s exact
// pigeonhole search in flat-arena form, the co-equal alternative to the
// HA-Index walk at loose thresholds. It is a SearchIndex, so Searcher,
// SearchBatch and SearchCodesBatch run over it.
type MIHIndex = mih.Index

// MIHOptions configures NewMIH; the zero value auto-sizes the blocks.
type MIHOptions = mih.Options

// NewMIH builds the frozen MIH engine over the codes.
func NewMIH(codes []Code, ids []int, opts MIHOptions) (*MIHIndex, error) {
	return mih.Build(codes, ids, opts)
}

// MIHSearchIndex returns m as a SearchIndex.
func MIHSearchIndex(m *MIHIndex) SearchIndex { return m }

// ---- Distributed filesystem simulation ----

// DFS is the simulated distributed filesystem; wire it into JoinOptions.FS
// to route local-index persistence through it with byte accounting.
type DFS = dfs.FS

// NewDFS returns an empty simulated filesystem with the given replication
// factor (0 selects 3, the HDFS default).
func NewDFS(replication int) *DFS { return dfs.New(replication) }

// BuildDynamicIndexParallel is BuildDynamicIndex with concurrent
// construction over Gray-range partitions; results are query-equivalent.
// workers <= 0 selects GOMAXPROCS.
func BuildDynamicIndexParallel(codes []Code, ids []int, opts IndexOptions, workers int) *DynamicIndex {
	return core.BuildDynamicParallel(codes, ids, opts, workers)
}

// LocalHammingJoin computes the centralized Hamming-join (the Section 5
// intro's "build an HA-Index for R, run H-Search per S tuple"): all (rid,
// sid) pairs whose codes are within h.
func LocalHammingJoin(rCodes, sCodes []Code, h int) []Pair {
	idx := core.BuildDynamic(rCodes, nil, core.Options{})
	var out []Pair
	var stats core.SearchStats
	for sid, sc := range sCodes {
		for _, rid := range idx.SearchInto(sc, h, &stats) {
			out = append(out, Pair{RID: rid, SID: sid})
		}
	}
	return out
}

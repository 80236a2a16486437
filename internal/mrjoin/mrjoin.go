// Package mrjoin implements the parallel Hamming-join of Section 5 on the
// MapReduce runtime, together with the two distributed baselines the paper
// evaluates against:
//
//   - MRHA (Options A and B): preprocessing (sampling, hash learning,
//     histogram pivot selection) → a first MapReduce job that partitions R
//     by Gray-order pivots and builds per-partition HA-Indexes that are
//     merged into a global index → a second job that broadcasts the (leafy
//     or leafless) index and joins S against it.
//   - PMH: Manku et al.'s approach — broadcast the whole of table R to
//     every node and run a MultiHashTable join per partition of S.
//   - PGBJ: Lu et al.'s exact kNN-join via pivot (Voronoi) partitioning
//     with full-dimensional record shuffling.
package mrjoin

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/dataset"
	"haindex/internal/dfs"
	"haindex/internal/hash"
	"haindex/internal/histo"
	"haindex/internal/mapreduce"
	"haindex/internal/planner"
	"haindex/internal/vector"
)

// Options configures the distributed join pipelines. Every index a pipeline
// builds takes core's default build options, and its jobs' costs come back
// in the mapreduce.Metrics of the result it returns.
type Options struct {
	Bits       int     // binary code length L; 0 selects 32
	Partitions int     // number of data partitions N; 0 selects Nodes
	Nodes      int     // simulated cluster size; 0 selects 16 (the paper's)
	SampleRate float64 // preprocessing sample fraction; 0 selects 0.1
	Threshold  int     // Hamming-join threshold h; 0 selects 3 (the paper's default)
	Seed       int64

	// SearchWorkers is the per-reducer query-engine parallelism: each join
	// or select reducer drains its query partition through a
	// core.SearchBatch worker pool over the engine Engine names instead of
	// searching serially. 0 selects GOMAXPROCS; 1 forces serial search.
	SearchWorkers int

	// FS, when set, routes the per-partition local indexes through the
	// simulated distributed filesystem: reducers persist their serialized
	// index (the paper's "produces the local HA-Index as output"), and the
	// merge phase reads the parts back. When nil the indexes are handed
	// over in memory.
	FS *dfs.FS

	// Faults, Retry, and Speculation configure the runtime failure model
	// for every MapReduce job a pipeline runs; see the mapreduce package.
	// The jobs' map and reduce functions are pure (and their DFS writes
	// idempotent), so injected failures and speculative re-execution never
	// change a join's output or its shuffle volume.
	Faults      *mapreduce.FaultPlan
	Retry       mapreduce.RetryPolicy
	Speculation mapreduce.Speculation

	// Engine is the engine every join and select reducer searches the
	// broadcast forest with: "" or "auto" runs the forest's counted plan at
	// Threshold (GlobalIndex.Plan: HA, MIH over the forest's leaf arena, or
	// the scan); "ha", "mih" or "scan" pins that engine, spelled as
	// planner.ParseStrategy reads it. The paper's reproduction pins "ha".
	Engine string
}

// job declares one of the pipeline's MapReduce jobs on o's cluster: one
// reducer per partition, map output keyed by a 4-byte partition id that
// routes by value (partitionByKeyUint32), and o's failure model. Every job
// is declared here, so none can run without the failure model.
func (o Options) job(name string, m mapreduce.MapFunc, r mapreduce.ReduceFunc, bcast ...mapreduce.Broadcast) mapreduce.Config {
	return mapreduce.Config{
		Name:        name,
		Nodes:       o.Nodes,
		Reducers:    o.Partitions,
		Map:         m,
		Reduce:      r,
		Partition:   partitionByKeyUint32,
		Broadcast:   bcast,
		Faults:      o.Faults,
		Retry:       o.Retry,
		Speculation: o.Speculation,
	}
}

func (o Options) withDefaults() Options {
	if o.Bits <= 0 {
		o.Bits = 32
	}
	if o.Nodes <= 0 {
		o.Nodes = 16
	}
	if o.Partitions <= 0 {
		o.Partitions = o.Nodes
	}
	if o.SampleRate <= 0 {
		o.SampleRate = 0.1
	}
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	return o
}

// Pair is one Hamming-join result: tuple RID of R and SID of S whose binary
// codes are within the threshold.
type Pair struct {
	RID, SID int
}

// Preprocessed carries the phase-1 artifacts of Figure 5: the learned hash
// function and the histogram pivots, with their costs.
type Preprocessed struct {
	Hash       *hash.Spectral
	Pivots     []bitvec.Code
	SampleSize int

	SampleTime time.Duration
	LearnTime  time.Duration
	HashTime   time.Duration // hashing the sample for the histogram
	PivotTime  time.Duration // histo.Pivots over the sampled codes
}

// Preprocess runs the phase-1 of the pipeline: reservoir-sample R and S,
// learn the spectral hash on the sample, and derive equi-depth Gray-order
// pivots from the sampled codes.
func Preprocess(r, s []vector.Vec, opt Options) (*Preprocessed, error) {
	opt = opt.withDefaults()
	t0 := time.Now()
	want := int(opt.SampleRate * float64(len(r)+len(s)))
	if want < 2 {
		want = 2
	}
	sample := dataset.Reservoir(append(append([]vector.Vec{}, r...), s...), want, opt.Seed)
	sampleTime := time.Since(t0)

	t0 = time.Now()
	h, err := hash.LearnSpectral(sample, opt.Bits)
	if err != nil {
		return nil, fmt.Errorf("mrjoin: learning hash: %w", err)
	}
	learnTime := time.Since(t0)

	t0 = time.Now()
	codes := hash.HashAll(h, sample)
	hashTime := time.Since(t0)

	t0 = time.Now()
	pivots := histo.Pivots(codes, opt.Partitions)
	pivotTime := time.Since(t0)

	return &Preprocessed{
		Hash:       h,
		Pivots:     pivots,
		SampleSize: len(sample),
		SampleTime: sampleTime,
		LearnTime:  learnTime,
		HashTime:   hashTime,
		PivotTime:  pivotTime,
	}, nil
}

// ---- record encodings (the bytes that cross the simulated wire) ----

// appendVec appends a feature vector's wire form: big-endian float32
// components, matching typical feature storage. This is the one place a
// vector is rounded; shipped reads the rounded values back.
func appendVec(dst []byte, v vector.Vec) []byte {
	for _, x := range v {
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(x)))
	}
	return dst
}

// shipped decodes a vector's wire form into dst's storage (grown when too
// small): the values a task on the far side of the wire computes with. Every
// plan and the reference join hash these, never the caller's float64s.
func shipped(dst vector.Vec, b []byte) vector.Vec {
	dst = slices.Grow(dst[:0], len(b)/4)[:len(b)/4]
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(b[4*i:])))
	}
	return dst
}

// VecInput encodes a dataset as MapReduce input records (key: tuple id,
// value: appendVec's bytes). Each worker encodes one contiguous run of tuples
// into a single slab: one allocation per worker, not two per tuple.
func VecInput(data []vector.Vec) []mapreduce.KV {
	out := make([]mapreduce.KV, len(data))
	workers := runtime.GOMAXPROCS(0)
	per := (len(data) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(data); lo += per {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			size := 0
			for _, v := range data[lo:hi] {
				size += 4 + 4*len(v)
			}
			recs := make(slab, size)
			for i := lo; i < hi; i++ {
				out[i] = mapreduce.KV{Key: recs.put32(i), Value: appendVec(recs.take(4 * len(data[i]))[:0], data[i])}
			}
		}(lo, min(lo+per, len(data)))
	}
	wg.Wait()
	return out
}

func decodeID(b []byte) int { return int(binary.BigEndian.Uint32(b)) }

func encodeUint32(v uint32) []byte {
	return binary.BigEndian.AppendUint32(make([]byte, 0, 4), v)
}

// slab hands out the few-byte records of an emitter from shared allocations.
type slab []byte

// take returns the next n bytes, capped so an append cannot reach its
// neighbour. An exhausted slab is replaced; records handed out keep the old
// one alive. Emitters that know their volume size the slab up front.
func (s *slab) take(n int) []byte {
	if len(*s) < n {
		*s = make([]byte, max(n, 16<<10))
	}
	b := (*s)[:n:n]
	*s = (*s)[n:]
	return b
}

// put32 takes 4 bytes holding v big-endian.
func (s *slab) put32(v int) []byte {
	b := s.take(4)
	binary.BigEndian.PutUint32(b, uint32(v))
	return b
}

// appendIDCode appends (tuple id, binary code) as a value.
func appendIDCode(dst []byte, id int, c bitvec.Code) []byte {
	return c.AppendBytes(binary.BigEndian.AppendUint32(dst, uint32(id)))
}

// mapScratch is what one routeMapper call borrows from the job's pool.
type mapScratch struct {
	vec  vector.Vec
	recs slab
}

// routeMapper is the map side of every job that hashes vectors: decode the
// shipped vector, hash it, pick the partition, and emit (partition, id+code).
// The partition is the one owning the code's Gray range or, when roundRobin
// is positive (every reducer holds the same replicated index), id mod
// roundRobin. A call allocates the code and nothing else: vector storage and
// the emitted bytes come from the job's pool.
func routeMapper(pre *Preprocessed, roundRobin int) mapreduce.MapFunc {
	recLen := 8 + bitvec.EncodedLen(pre.Hash.Bits())
	pool := &sync.Pool{New: func() any { return new(mapScratch) }}
	return func(in mapreduce.KV, emit func(mapreduce.KV)) error {
		sc := pool.Get().(*mapScratch)
		id := decodeID(in.Key)
		sc.vec = shipped(sc.vec, in.Value)
		code := pre.Hash.Hash(sc.vec)
		var pid int
		if roundRobin > 0 {
			pid = id % roundRobin
		} else {
			pid = histo.PartitionID(pre.Pivots, code)
		}
		rec := sc.recs.take(recLen)
		binary.BigEndian.PutUint32(rec, uint32(pid))
		appendIDCode(rec[:4], id, code) // fills rec[4:] in place
		pool.Put(sc)
		emit(mapreduce.KV{Key: rec[:4:4], Value: rec[4:]})
		return nil
	}
}

// decodeIDCodeBatch decodes a reducer's value list (appendIDCode records)
// into parallel id and code slices — the batch a reducer builds an index
// over or hands to core.SearchBatch.
func decodeIDCodeBatch(values [][]byte, bits int) ([]int, []bitvec.Code, error) {
	ids := make([]int, len(values))
	codes := make([]bitvec.Code, len(values))
	for i, v := range values {
		if len(v) < 4 {
			return nil, nil, fmt.Errorf("mrjoin: short id+code record (%d bytes)", len(v))
		}
		c, _, err := bitvec.CodeFromBytes(v[4:], bits)
		if err != nil {
			return nil, nil, err
		}
		ids[i], codes[i] = decodeID(v), c
	}
	return ids, codes, nil
}

// strategy is the engine pin Engine names, planner.UsePlan for none.
func (o Options) strategy() (planner.Strategy, error) {
	s, err := planner.ParseStrategy(o.Engine)
	if err != nil {
		return 0, fmt.Errorf("mrjoin: %w", err)
	}
	return s, nil
}

// checkBits guards against a silent reinterpretation hazard: codes are
// wire-encoded without a length marker (the job config carries it), so a
// config whose Bits disagrees with the learned hash would decode garbage.
func checkBits(pre *Preprocessed, opt Options) error {
	if pre.Hash.Bits() != opt.Bits {
		return fmt.Errorf("mrjoin: options declare %d-bit codes but the learned hash produces %d-bit codes",
			opt.Bits, pre.Hash.Bits())
	}
	return nil
}

// partitionByKeyUint32 routes 4-byte big-endian partition-id keys directly.
func partitionByKeyUint32(key []byte, n int) int {
	return int(binary.BigEndian.Uint32(key)) % n
}

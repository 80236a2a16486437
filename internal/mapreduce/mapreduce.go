// Package mapreduce is an in-process MapReduce runtime with exact cost
// accounting, standing in for the paper's 16-node Hadoop 0.22 cluster
// (see DESIGN.md ("In-process MapReduce for Hadoop")).
//
// The runtime executes real map and reduce functions on a bounded pool of
// workers that model cluster nodes. Every intermediate record crosses the
// map→reduce boundary as serialized bytes, so the shuffle volume the paper
// plots in Figure 7 is measured, not estimated; distributed-cache broadcasts
// (how the HA-Index and pivot tables reach every node) are charged per node.
// Per-task wall times and per-reducer record counts expose the load balance
// that the histogram-based partitioning of Section 5.1 is designed to
// achieve.
//
// The runtime is failure-aware: a FaultPlan injects deterministic task
// failures and straggler delays, failed attempts are retried with
// exponential backoff up to a bounded budget, and speculative execution
// races a backup attempt against any straggling task, taking the first
// finisher. Map and reduce functions are pure over their inputs, so
// re-execution cannot change the output or the shuffle volume; only the
// wasted-work counters and wall time reflect the failures.
package mapreduce

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"
)

// KV is one key-value record. Keys and values are raw bytes, as on the wire.
type KV struct {
	Key   []byte
	Value []byte
}

// MapFunc consumes one input record and emits intermediate records.
type MapFunc func(in KV, emit func(KV)) error

// ReduceFunc consumes one key group and emits output records.
type ReduceFunc func(key []byte, values [][]byte, emit func(KV)) error

// PartitionFunc routes an intermediate key to one of n reduce partitions.
type PartitionFunc func(key []byte, n int) int

// Broadcast is a distributed-cache entry: a read-only object shipped to every
// node before the job starts (Section 5.2 loads the pivots, the hash
// function, and the global HA-Index this way). Size is the serialized size
// charged once per node.
type Broadcast struct {
	Name string
	Size int64
}

// Config describes one MapReduce job: one map and one reduce, with nothing
// combining map output in between. What the job cost comes back in Metrics.
type Config struct {
	Name     string
	Mappers  int // map tasks; 0 selects Nodes
	Reducers int // reduce tasks; 0 selects Nodes
	Nodes    int // concurrently executing workers (cluster size); 0 selects 4

	Map       MapFunc // required
	Reduce    ReduceFunc
	Partition PartitionFunc // nil selects FNV-1a hash partitioning
	Broadcast []Broadcast

	// Faults, when set, injects deterministic task failures and straggler
	// delays (nil injects nothing). Map and Reduce must be pure over their
	// inputs — any task attempt may be re-executed or raced against a
	// duplicate; external side effects must be idempotent (see
	// dfs.CreateIdempotent).
	Faults *FaultPlan
	// Retry bounds per-task re-execution; the zero value selects Hadoop's
	// defaults (4 attempts, backoff from 1ms doubling per retry).
	Retry RetryPolicy
	// Speculation, when enabled, launches a backup attempt for any task
	// running longer than a multiple of the median completed-task time and
	// takes the first finisher.
	Speculation Speculation
}

// Metrics reports what one job cost.
type Metrics struct {
	ShuffleBytes   int64 // serialized intermediate data crossing map→reduce
	ShuffleRecords int64
	BroadcastBytes int64 // distributed-cache bytes (size × nodes)
	OutputRecords  int64

	MapTaskTimes    []time.Duration
	ReduceTaskTimes []time.Duration
	ReducerRecords  []int64 // per-reducer input records (skew indicator)
	Wall            time.Duration

	// Per-phase wall times; Wall covers the whole job, these split it into
	// the map phase, the shuffle (partition merge + sort), and the reduce
	// phase (including the identity pass of map-only jobs).
	MapWall     time.Duration
	ShuffleWall time.Duration
	ReduceWall  time.Duration

	// Failure-model counters. On a failure-free run without speculation,
	// Attempts equals the task count and the rest are zero.
	Attempts            int64 // task attempts launched (first runs, retries, backups)
	RetriedTasks        int64 // tasks that succeeded only after >=1 failed attempt
	SpeculativeLaunched int64 // backup attempts launched against stragglers
	SpeculativeWon      int64 // backups that finished before the original
	WastedBytes         int64 // bytes emitted by failed or losing attempts, discarded
}

// Skew returns max/mean of per-reducer record counts; 1.0 is perfectly
// balanced. It returns 0 when the job had no reduce input.
func (m Metrics) Skew() float64 {
	var max, sum int64
	for _, r := range m.ReducerRecords {
		if r > max {
			max = r
		}
		sum += r
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(m.ReducerRecords))
	return float64(max) / mean
}

// Add accumulates another job's metrics, for multi-job pipelines. Per-task
// data (task times, per-reducer record counts) is concatenated, so Skew()
// over the sum reflects every job's reducers, not just the last one's.
func (m *Metrics) Add(o Metrics) {
	m.ShuffleBytes += o.ShuffleBytes
	m.ShuffleRecords += o.ShuffleRecords
	m.BroadcastBytes += o.BroadcastBytes
	m.OutputRecords += o.OutputRecords
	m.Wall += o.Wall
	m.MapWall += o.MapWall
	m.ShuffleWall += o.ShuffleWall
	m.ReduceWall += o.ReduceWall
	m.MapTaskTimes = append(m.MapTaskTimes, o.MapTaskTimes...)
	m.ReduceTaskTimes = append(m.ReduceTaskTimes, o.ReduceTaskTimes...)
	m.ReducerRecords = append(m.ReducerRecords, o.ReducerRecords...)
	m.Attempts += o.Attempts
	m.RetriedTasks += o.RetriedTasks
	m.SpeculativeLaunched += o.SpeculativeLaunched
	m.SpeculativeWon += o.SpeculativeWon
	m.WastedBytes += o.WastedBytes
}

// Tasks returns the job's task count (map + reduce); with failures injected,
// Attempts exceeds it.
func (m Metrics) Tasks() int {
	return len(m.MapTaskTimes) + len(m.ReduceTaskTimes)
}

// recordOverhead models per-record framing (key length + value length).
const recordOverhead = 8

// HashPartition is the default FNV-1a key partitioner. It panics when n is
// not positive, like an out-of-range slice index would.
func HashPartition(key []byte, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("mapreduce: HashPartition over %d partitions", n))
	}
	// FNV-1a inlined: the hash.Hash32 interface allocation is measurable on
	// the shuffle path, where this runs once per intermediate record.
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h % uint32(n))
}

// kvBytes is one record's contribution to shuffle/output volume.
func kvBytes(kv KV) int64 {
	return int64(len(kv.Key) + len(kv.Value) + recordOverhead)
}

// mapOutput is one map attempt's payload: its records by reduce partition
// and their serialized volume, summed once inside the task.
type mapOutput struct {
	parts [][]KV
	bytes int64
}

// Run executes the job over the input and returns the reduce output and the
// job metrics. Output records are sorted by (key, value) for determinism:
// every reduce attempt sorts what it emitted inside its own task, and the
// winners' sorted runs are merged here. Injected failures, retries, and
// speculative execution never change the output or the shuffle volume.
func Run(cfg Config, input []KV) ([]KV, Metrics, error) {
	if cfg.Map == nil {
		return nil, Metrics{}, fmt.Errorf("mapreduce: job %q has no map function", cfg.Name)
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Mappers <= 0 {
		cfg.Mappers = cfg.Nodes
	}
	if cfg.Reducers <= 0 {
		cfg.Reducers = cfg.Nodes
	}
	if cfg.Partition == nil {
		cfg.Partition = HashPartition
	}
	var metrics Metrics
	for _, b := range cfg.Broadcast {
		metrics.BroadcastBytes += b.Size * int64(cfg.Nodes)
	}
	start := time.Now()
	sem := make(chan struct{}, cfg.Nodes)

	// ---- Map phase ----
	splits := splitInput(input, cfg.Mappers)
	mapPayloads, mapTooks, err := runPhase(MapTask, &cfg, sem, len(splits), &metrics,
		func(mi int) (any, int64, error) {
			var emitted int64
			parts := make([][]KV, cfg.Reducers)
			for p := range parts {
				// Room for one record per input, spread evenly; a mapper
				// that emits more, or skewed, grows from there.
				parts[p] = make([]KV, 0, len(splits[mi])/cfg.Reducers+1)
			}
			emit := func(kv KV) {
				p := cfg.Partition(kv.Key, cfg.Reducers)
				parts[p] = append(parts[p], kv)
				emitted += kvBytes(kv)
			}
			for _, in := range splits[mi] {
				if err := cfg.Map(in, emit); err != nil {
					return nil, emitted, fmt.Errorf("mapreduce: job %q map task %d: %w", cfg.Name, mi, err)
				}
			}
			return mapOutput{parts: parts, bytes: emitted}, emitted, nil
		})
	if err != nil {
		metrics.Wall = time.Since(start)
		return nil, metrics, err
	}
	metrics.MapTaskTimes = mapTooks
	metrics.MapWall = time.Since(start)

	// ---- Shuffle ----
	shuffleStart := time.Now()
	// Only winning attempts reach this point, so the shuffle volume is
	// identical to a failure-free run.
	metrics.ReducerRecords = make([]int64, cfg.Reducers)
	mapOuts := make([]mapOutput, len(mapPayloads))
	for mi, payload := range mapPayloads {
		mapOuts[mi] = payload.(mapOutput)
		metrics.ShuffleBytes += mapOuts[mi].bytes
		for p, kvs := range mapOuts[mi].parts {
			metrics.ReducerRecords[p] += int64(len(kvs))
		}
	}
	partData := make([][]KV, cfg.Reducers)
	for p, n := range metrics.ReducerRecords {
		metrics.ShuffleRecords += n
		partData[p] = make([]KV, 0, n)
		for _, mo := range mapOuts {
			partData[p] = append(partData[p], mo.parts[p]...)
		}
	}
	// Sort each partition here, as the shuffle's merge step: reduce task
	// attempts may be re-executed or raced concurrently, so their input
	// must be read-only.
	var sortWG sync.WaitGroup
	for p := range partData {
		sortWG.Add(1)
		go func(p int) {
			defer sortWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sortKVs(partData[p])
		}(p)
	}
	sortWG.Wait()
	metrics.ShuffleWall = time.Since(shuffleStart)

	// ---- Reduce phase ----
	reduceStart := time.Now()
	if cfg.Reduce == nil {
		// Identity job: the shuffled records, sorted per partition above,
		// are the output.
		out := mergeRuns(partData)
		metrics.OutputRecords = int64(len(out))
		metrics.ReduceWall = time.Since(reduceStart)
		metrics.Wall = time.Since(start)
		return out, metrics, nil
	}
	redPayloads, redTooks, err := runPhase(ReduceTask, &cfg, sem, cfg.Reducers, &metrics,
		func(p int) (any, int64, error) {
			kvs := partData[p]
			var out []KV
			var emitted int64
			emit := func(kv KV) {
				out = append(out, kv)
				emitted += kvBytes(kv)
			}
			for i := 0; i < len(kvs); {
				j := i
				for j < len(kvs) && bytes.Equal(kvs[j].Key, kvs[i].Key) {
					j++
				}
				vals := make([][]byte, 0, j-i)
				for _, kv := range kvs[i:j] {
					vals = append(vals, kv.Value)
				}
				if err := cfg.Reduce(kvs[i].Key, vals, emit); err != nil {
					return nil, emitted, fmt.Errorf("mapreduce: job %q reduce task %d: %w", cfg.Name, p, err)
				}
				i = j
			}
			// Sorted here, on the task's node slot beside the other
			// reducers, and only ever over this attempt's own records.
			sortKVs(out)
			return out, emitted, nil
		})
	if err != nil {
		metrics.Wall = time.Since(start)
		return nil, metrics, err
	}
	metrics.ReduceTaskTimes = redTooks
	runs := make([][]KV, len(redPayloads))
	for p, payload := range redPayloads {
		runs[p] = payload.([]KV)
	}
	out := mergeRuns(runs)
	metrics.OutputRecords = int64(len(out))
	metrics.ReduceWall = time.Since(reduceStart)
	metrics.Wall = time.Since(start)
	return out, metrics, nil
}

// splitInput divides the input into contiguous chunks, one per map task.
func splitInput(input []KV, mappers int) [][]KV {
	if mappers > len(input) && len(input) > 0 {
		mappers = len(input)
	}
	if len(input) == 0 {
		return [][]KV{nil}
	}
	splits := make([][]KV, 0, mappers)
	per := (len(input) + mappers - 1) / mappers
	for at := 0; at < len(input); at += per {
		end := at + per
		if end > len(input) {
			end = len(input)
		}
		splits = append(splits, input[at:end])
	}
	return splits
}

// compareKV orders records by key, then value.
func compareKV(a, b KV) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}

func sortKVs(kvs []KV) { slices.SortFunc(kvs, compareKV) }

// mergeRuns merges runs that are each sorted by compareKV into one sorted
// slice, pairwise: every record is copied once per level of a balanced tree
// over the runs (once in all for two reducers), against a comparison sort's
// log₂(records) passes over all of them. Ties take the earlier run's record
// first, and records that tie are byte-equal, so the result is the slice a
// sort of the concatenation yields.
func mergeRuns(runs [][]KV) []KV {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	a, b := mergeRuns(runs[:len(runs)/2]), mergeRuns(runs[len(runs)/2:])
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]KV, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if compareKV(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

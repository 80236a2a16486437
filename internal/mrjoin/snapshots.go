package mrjoin

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/gray"
	"haindex/internal/mapreduce"
	"haindex/internal/vector"
	"haindex/internal/wire"
)

// ShardSnapshots is the output of BuildShardSnapshots: one serving-ready
// snapshot file per partition plus the job's cost.
type ShardSnapshots struct {
	Paths   []string // shard-%05d.hasn, indexed by partition id
	Tuples  []int    // per-partition tuple counts
	Metrics mapreduce.Metrics
	Build   time.Duration
}

// BuildShardSnapshots runs the Figure-5 build job end-to-end for serving:
// mappers hash and route tuples to their Gray partition exactly as
// BuildGlobalIndex does, but each reducer emits a serving-ready v4 snapshot
// (shard-%05d.hasn in dir) instead of handing back a pointer index for a
// global merge. The reducer Gray-sorts its partition and streams it through
// a core.FrozenStreamWriter in chunkSize chunks, so reducer peak memory is
// O(chunkSize) — a partition far larger than a worker's RAM still freezes,
// because no pointer DAG over the whole partition ever exists. chunkSize <= 0
// selects 1<<18.
//
// Partitions that receive no tuples still get a (valid, empty) snapshot so
// the directory always holds opt.Partitions files and a server fleet can
// load every shard of the routing table.
func BuildShardSnapshots(r []vector.Vec, pre *Preprocessed, opt Options, dir string, chunkSize int) (*ShardSnapshots, error) {
	opt = opt.withDefaults()
	if err := checkBits(pre, opt); err != nil {
		return nil, err
	}
	if chunkSize <= 0 {
		chunkSize = 1 << 18
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := func(pid int) wire.SnapshotMeta {
		return wire.SnapshotMeta{Part: pid, Parts: opt.Partitions, Length: opt.Bits, Pivots: pre.Pivots}
	}
	shardPath := func(pid int) string {
		return filepath.Join(dir, fmt.Sprintf("shard-%05d.hasn", pid))
	}

	var mu sync.Mutex
	tuples := make([]int, opt.Partitions)

	cfg := mapreduce.Config{
		Name:      "mrha-build-snapshots",
		Nodes:     opt.Nodes,
		Reducers:  opt.Partitions,
		Partition: partitionByKeyUint32,
		Broadcast: []mapreduce.Broadcast{
			{Name: "pivots", Size: pivotsSize(pre)},
			{Name: "hash", Size: hashFuncSize(pre)},
		},
		Map: routeMapper(pre, 0),
		Reduce: func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
			pid := decodeID(key)
			ids, codes, err := decodeIDCodeBatch(values, opt.Bits)
			if err != nil {
				return err
			}
			// Gray-sort the whole partition so each streamed chunk covers a
			// tight Gray range and the per-chunk hierarchies stay as selective
			// as a monolithic build over the same range. The writer's builder
			// sorts too, but only within a chunk: this sort is what makes a
			// chunk a range, and the builder's pass over an ordered chunk
			// finds nothing to do.
			gray.Sort(codes, ids)
			if err := emitSnapshot(shardPath(pid), meta(pid), chunkSize, ids, codes); err != nil {
				return err
			}
			mu.Lock()
			tuples[pid] = len(ids)
			mu.Unlock()
			return nil
		},
	}
	opt.applyRuntime(&cfg)
	t0 := time.Now()
	_, metrics, err := mapreduce.Run(cfg, VecInput(r))
	if err != nil {
		return nil, fmt.Errorf("mrjoin: build-snapshots job: %w", err)
	}
	out := &ShardSnapshots{Tuples: tuples, Metrics: metrics, Build: time.Since(t0)}
	for pid := 0; pid < opt.Partitions; pid++ {
		path := shardPath(pid)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			// Empty partition: no reducer key, so emit the snapshot here.
			if err := emitSnapshot(path, meta(pid), chunkSize, nil, nil); err != nil {
				return nil, err
			}
		}
		out.Paths = append(out.Paths, path)
	}
	return out, nil
}

// emitSnapshot streams one partition's tuples into path as a v4 snapshot,
// writing through a same-directory temp file and an atomic rename so
// concurrent attempts at the same partition never interleave.
func emitSnapshot(path string, meta wire.SnapshotMeta, chunkSize int, ids []int, codes []bitvec.Code) error {
	sw, err := core.NewFrozenStreamWriter(meta.Length, chunkSize, core.Options{})
	if err != nil {
		return err
	}
	for i, c := range codes {
		if err := sw.Add(ids[i], c); err != nil {
			return err
		}
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		sw.Abort()
		return err
	}
	err = wire.WriteSnapshotStream(f, meta, sw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("mrjoin: writing %s: %w", path, err)
	}
	return os.Rename(f.Name(), path)
}

package mrjoin

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// BuildShardSnapshots runs the Figure-5 build job (partitionJob) for
// serving: each reducer writes its partition as a serving-ready v4 snapshot
// (ShardDir.Write, shard-%05d.hasn in dir) instead of handing back an arena
// for a global merge. The snapshot streams through a core.FrozenStreamWriter
// in chunkSize chunks, so reducer peak memory is O(chunkSize) — a partition
// far larger than a worker's RAM still freezes, because no index over the
// whole partition is ever resident. chunkSize <= 0 selects 1<<18.
//
// A build replaces the whole directory (ShardDir.Complete): partitions that
// receive no tuples get a valid, empty snapshot, and every other
// shard-*.hasn is removed, so dir holds exactly opt.Partitions files, all of
// this build, and a server fleet can load every shard of its routing table.
func BuildShardSnapshots(r []vector.Vec, pre *Preprocessed, opt Options, dir string, chunkSize int) (*ShardSnapshots, error) {
	opt = opt.withDefaults()
	if chunkSize <= 0 {
		chunkSize = 1 << 18
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sd := ShardDir{Dir: dir, Parts: opt.Partitions, Bits: opt.Bits, Pivots: pre.Pivots, Chunk: chunkSize}
	var mu sync.Mutex
	tuples := make([]int, opt.Partitions)
	t0 := time.Now()
	metrics, err := partitionJob("mrha-build-snapshots", r, pre, opt, func(pid int, ids []int, codes []bitvec.Code) error {
		if err := sd.Write(pid, ids, codes); err != nil {
			return err
		}
		mu.Lock()
		tuples[pid] = len(ids)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mrjoin: build-snapshots job: %w", err)
	}
	out := &ShardSnapshots{Tuples: tuples, Metrics: metrics, Build: time.Since(t0)}
	if out.Paths, err = sd.Complete(tuples); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardDir is a directory holding one sharded build: shard-%05d.hasn for
// each of Parts Gray partitions and no other shard-*.hasn. The MapReduce
// reducers of BuildShardSnapshots and haidx shard both write through it.
type ShardDir struct {
	Dir    string
	Parts  int           // partitions in the build, one snapshot each
	Bits   int           // code length L
	Pivots []bitvec.Code // the Parts-1 Gray bounds between partitions
	Chunk  int           // streaming-build chunk size in tuples
}

// file returns partition pid's snapshot file.
func (d *ShardDir) file(pid int) string {
	return filepath.Join(d.Dir, fmt.Sprintf("shard-%05d.hasn", pid))
}

// tmpSeq numbers the temp files ShardDir.Write renames into place.
var tmpSeq atomic.Int64

// Write streams partition pid's tuples into its v4 snapshot, sorting ids and
// codes together in place. The file is written through a same-directory temp
// file and an atomic rename, so concurrent attempts at the same partition
// never interleave and a reader never sees half a snapshot.
func (d *ShardDir) Write(pid int, ids []int, codes []bitvec.Code) error {
	// Gray-sort the whole partition so each streamed chunk covers a tight
	// Gray range and the per-chunk hierarchies stay as selective as a
	// monolithic build over the same range. The writer's builder sorts too,
	// but only within a chunk: this sort is what makes a chunk a range, and
	// the builder's pass over an ordered chunk finds nothing to do.
	gray.Sort(codes, ids)
	sw, err := core.NewFrozenStreamWriter(d.Bits, d.Chunk, core.Options{})
	if err != nil {
		return err
	}
	for i, c := range codes {
		if err := sw.Add(ids[i], c); err != nil {
			return err
		}
	}
	// The temp name is unique among live writers (this process's id and a
	// sequence number), and os.Create, unlike os.CreateTemp's 0600, leaves
	// the snapshot readable by whoever serves it.
	path := d.file(pid)
	f, err := os.Create(fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), tmpSeq.Add(1)))
	if err != nil {
		sw.Abort()
		return err
	}
	meta := wire.SnapshotMeta{Part: pid, Parts: d.Parts, Length: d.Bits, Pivots: d.Pivots}
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

// Complete finishes a build into the directory, given how many tuples the
// build wrote to each partition, and returns the partitions' paths. A
// partition with no tuples had no writer, so whatever file it has is an
// earlier build's: it gets an empty snapshot. Every other shard-*.hasn — a
// partition numbered at or above Parts — is removed. After Complete the
// directory holds exactly this build.
func (d *ShardDir) Complete(tuples []int) ([]string, error) {
	paths := make([]string, d.Parts)
	for pid := range paths {
		paths[pid] = d.file(pid)
		if tuples[pid] == 0 {
			if err := d.Write(pid, nil, nil); err != nil {
				return nil, err
			}
		}
	}
	dir, err := os.Open(d.Dir)
	if err != nil {
		return nil, err
	}
	names, err := dir.Readdirnames(-1)
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".hasn") {
			continue
		}
		if p := filepath.Join(d.Dir, name); !slices.Contains(paths, p) {
			if err := os.Remove(p); err != nil {
				return nil, err
			}
		}
	}
	return paths, nil
}

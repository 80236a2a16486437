package mrjoin

import (
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/vector"
	"haindex/internal/wire"
)

// TestBuildShardSnapshots: the reducer-emitted v4 snapshots load through
// both the eager and the mmap readers, and the union of shard answers equals
// a monolithic single-index build's answers.
func TestBuildShardSnapshots(t *testing.T) {
	r, _ := testData32(t, 600, 0)
	opt := testOptions()
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Tiny chunk so every partition streams through several chunks.
	snaps, err := BuildShardSnapshots(r, pre, opt, dir, 48)
	if err != nil {
		t.Fatal(err)
	}
	checkShardDir(t, dir, snaps, opt, hashCodes(pre, r))
}

// TestRebuildIntoUsedDir: a build replaces the whole directory. 600 tuples
// into 4 partitions, then 1 tuple over the same pivots — three partitions
// empty, their files an earlier build's — then 600 tuples into 2 partitions:
// after each build every file holds what the job counted, no shard is
// numbered at or above the partition count, and the shards answer as a
// monolithic build over that build's tuples.
func TestRebuildIntoUsedDir(t *testing.T) {
	r, _ := testData32(t, 600, 0)
	dir := t.TempDir()
	opt := testOptions()
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]vector.Vec{r, r[:1]} {
		snaps, err := BuildShardSnapshots(data, pre, opt, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkShardDir(t, dir, snaps, opt, hashCodes(pre, data))
	}
	opt.Partitions = 2
	if pre, err = Preprocess(r, nil, opt); err != nil {
		t.Fatal(err)
	}
	snaps, err := BuildShardSnapshots(r, pre, opt, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkShardDir(t, dir, snaps, opt, hashCodes(pre, r))
}

// checkShardDir holds a BuildShardSnapshots directory to the build of codes
// that made it: the directory's shard-*.hasn are exactly snaps.Paths, one per
// partition, each readable mapped and eagerly and holding the tuples the job
// counted, and the union of the shards' answers at the threshold equals a
// monolithic index's over codes.
func checkShardDir(t *testing.T, dir string, snaps *ShardSnapshots, opt Options, codes []bitvec.Code) {
	t.Helper()
	found, err := filepath.Glob(filepath.Join(dir, "shard-*.hasn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps.Paths) != opt.Partitions || !slices.Equal(found, snaps.Paths) {
		t.Fatalf("directory holds %v, the %d-partition build wrote %v", found, opt.Partitions, snaps.Paths)
	}
	total := 0
	for _, n := range snaps.Tuples {
		total += n
	}
	if total != len(codes) {
		t.Fatalf("shards hold %d tuples, dataset has %d", total, len(codes))
	}

	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	mono := core.NewSearcher(core.BuildFrozen(opt.Bits, rows, nil, core.Options{}))

	searchers := make([]*core.Searcher, 0, len(snaps.Paths))
	for i, path := range snaps.Paths {
		meta, mapped, err := wire.MapSnapshotFile(path)
		if err != nil {
			t.Fatalf("mapping %s: %v", path, err)
		}
		t.Cleanup(func() { mapped.Close() })
		if meta.Part != i || meta.Parts != opt.Partitions {
			t.Fatalf("%s: meta %d/%d", path, meta.Part, meta.Parts)
		}
		if mapped.Len() != snaps.Tuples[i] {
			t.Fatalf("%s: %d tuples, job reported %d", path, mapped.Len(), snaps.Tuples[i])
		}
		// The eager reader must accept the same file.
		if _, eager, err := wire.ReadSnapshotFile(path); err != nil {
			t.Fatalf("eager read %s: %v", path, err)
		} else if eager.Len() != mapped.Len() {
			t.Fatalf("%s: eager read holds %d tuples, mapped %d", path, eager.Len(), mapped.Len())
		}
		searchers = append(searchers, core.NewSearcher(mapped))
	}

	nq := min(40, len(codes))
	for qi := 0; qi < nq; qi++ {
		q := codes[qi*len(codes)/nq]
		want := append([]int(nil), mono.Search(q, opt.Threshold)...)
		var got []int
		for _, sr := range searchers {
			got = append(got, sr.Search(q, opt.Threshold)...)
		}
		sort.Ints(want)
		sort.Ints(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: sharded ids %v, monolithic %v", qi, got, want)
		}
	}
}

// TestBuildShardSnapshotsEmptyPartition: partitions that receive no tuples
// still produce a loadable snapshot.
func TestBuildShardSnapshotsEmptyPartition(t *testing.T) {
	r, _ := testData32(t, 40, 0)
	opt := testOptions()
	opt.Partitions = 16 // far more partitions than clusters: some go empty
	opt.Nodes = 4
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := BuildShardSnapshots(r, pre, opt, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sawEmpty := false
	for i, path := range snaps.Paths {
		_, idx, err := wire.ReadSnapshotFile(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if idx.Len() == 0 {
			sawEmpty = true
		}
	}
	if !sawEmpty {
		t.Skip("no empty partition produced; dataset change?")
	}
}

// TestBuildShardSnapshotsUnderFaults: under faultedOptions the job re-runs
// tasks, its reducers rewriting their partitions through temp-file and
// rename, and still ships the clean run's shuffle and leaves the clean run's
// directory: every file holding the tuples the job counted.
func TestBuildShardSnapshotsUnderFaults(t *testing.T) {
	r, _ := testData32(t, 300, 0)
	opt := testOptions()
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := BuildShardSnapshots(r, pre, opt, t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snaps, err := BuildShardSnapshots(r, pre, faultedOptions(), dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if snaps.Metrics.Attempts <= int64(snaps.Metrics.Tasks()) {
		t.Fatalf("snapshot job recorded no extra attempts: %d for %d tasks", snaps.Metrics.Attempts, snaps.Metrics.Tasks())
	}
	if snaps.Metrics.ShuffleBytes != clean.Metrics.ShuffleBytes {
		t.Fatalf("snapshot shuffle changed under faults: %d vs %d", snaps.Metrics.ShuffleBytes, clean.Metrics.ShuffleBytes)
	}
	if !slices.Equal(snaps.Tuples, clean.Tuples) {
		t.Fatalf("partition counts changed under faults: %v vs %v", snaps.Tuples, clean.Tuples)
	}
	checkShardDir(t, dir, snaps, opt, hashCodes(pre, r))
}

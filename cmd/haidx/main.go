// Command haidx writes, inspects and queries HA-Index files, all in the one
// index format: the HASN v4 snapshot, a shard header (partition p of P, the
// build's pivots) over the HADX v4 serving arena. It is the file the MapReduce
// build's snapshot job writes, haserve maps and haquery -oracle scans.
//
// Usage:
//
//	hagen -profile NUS-WIDE -n 20000 -o d.csv
//	haidx shard -data d.csv -bits 32 -parts 1 -o one/
//	haidx info -index one/shard-00000.hasn
//	haidx search -index one/shard-00000.hasn -query-rows 0,42 -h 3
//	haidx shard -data d.csv -bits 32 -parts 4 -o shards/
//
// The shard subcommand splits the dataset into Gray-code partitions and
// writes one self-describing snapshot per partition (shard-00000.hasn …),
// ready to be served by haserve and queried through haquery; -parts 1 writes
// the whole dataset as one. It also writes codes.txt (one bit-string per row)
// so queries can be issued by code: search reads its query rows from the
// codes.txt beside the index, so it hashes nothing and cannot disagree with
// the build, and refuses a snapshot with none.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/hash"
	"haindex/internal/histo"
	"haindex/internal/mrjoin"
	"haindex/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: haidx <shard|info|search> [flags]")
	}
	switch os.Args[1] {
	case "info":
		cmdInfo(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "shard":
		cmdShard(os.Args[2:])
	default:
		fatalf("unknown subcommand %q; want shard|info|search", os.Args[1])
	}
}

// loadIndex maps a snapshot file; the caller closes the index.
func loadIndex(path string) (wire.SnapshotMeta, *core.FrozenIndex) {
	meta, idx, err := wire.MapSnapshotFile(path)
	if err != nil {
		fatalf("loading %s: %v", path, err)
	}
	return meta, idx
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	index := fs.String("index", "", "snapshot file (required)")
	fs.Parse(args)
	if *index == "" {
		fatalf("info: -index is required")
	}
	meta, idx := loadIndex(*index)
	defer idx.Close()
	fmt.Printf("HA-Index file: %s\n", *index)
	fmt.Printf("  form:           HASN v4 snapshot, HADX v4 arena (mmap-native)\n")
	fmt.Printf("  partition:      %d of %d\n", meta.Part, meta.Parts)
	fmt.Printf("  pivots:         %d\n", len(meta.Pivots))
	fmt.Printf("  code length:    %d bits\n", idx.Length())
	fmt.Printf("  tuples:         %d\n", idx.Len())
	fmt.Printf("  distinct codes: %d\n", idx.GroupCount())
	fmt.Printf("  internal nodes: %d\n", idx.NodeCount())
	fmt.Printf("  edges:          %d\n", idx.EdgeCount())
	fmt.Printf("  memory:         %.1f KB (flat arena)\n", float64(idx.SizeBytes())/1e3)
}

// cmdSearch queries a snapshot with the codes of dataset rows, read from the
// codes.txt that haidx shard wrote beside it. Before searching, every tuple
// of the snapshot must carry its row's code there, so a codes.txt of another
// build is refused rather than queried.
func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	index := fs.String("index", "", "snapshot file (required; codes.txt must be beside it)")
	rows := fs.String("query-rows", "0", "comma-separated dataset rows used as queries")
	h := fs.Int("h", 3, "Hamming threshold")
	fs.Parse(args)
	if *index == "" {
		fatalf("search: -index is required")
	}
	meta, idx := loadIndex(*index)
	defer idx.Close()
	codesPath := filepath.Join(filepath.Dir(*index), "codes.txt")
	codes, err := dataset.ReadCodes(codesPath)
	if err != nil {
		fatalf("search: the query codes of %s: %v", *index, err)
	}
	idx.Tuples(func(id int, c bitvec.Code) {
		if id >= len(codes) || !codes[id].Equal(c) {
			fatalf("search: %s does not hold the codes of the build that wrote %s (tuple %d differs)", codesPath, *index, id)
		}
	})
	fmt.Printf("haidx: %s: partition %d of %d, %d tuples\n", *index, meta.Part, meta.Parts, idx.Len())
	sr := core.NewSearcher(idx)
	for _, part := range strings.Split(*rows, ",") {
		row, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || row < 0 || row >= len(codes) {
			fatalf("invalid query row %q (%s has %d rows)", part, codesPath, len(codes))
		}
		t0 := time.Now()
		n := len(sr.Search(codes[row], *h))
		fmt.Printf("row %d: %d matches within h=%d in %v [%d distance computations]\n",
			row, n, *h, time.Since(t0), sr.Stats.DistanceComputations)
	}
}

// cmdShard hashes the dataset, picks Gray-rank pivots from a sample, splits
// the rows into contiguous Gray partitions, and writes one serving snapshot
// per partition. Row numbers in the CSV become the global tuple ids, so
// results from a sharded deployment line up with a single-index build.
func cmdShard(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	data := fs.String("data", "", "CSV dataset (required)")
	bits := fs.Int("bits", 32, "binary code length")
	parts := fs.Int("parts", 2, "number of partitions (one snapshot each)")
	out := fs.String("o", "shards", "output directory")
	seed := fs.Int64("seed", 1, "hash-learning sample seed")
	chunk := fs.Int("chunk", 1<<18, "streaming-build chunk size in tuples (peak memory is O(chunk), not O(partition))")
	fs.Parse(args)
	if *data == "" {
		fatalf("shard: -data is required")
	}
	if *parts < 1 {
		fatalf("shard: -parts must be >= 1")
	}
	vecs, err := dataset.ReadCSV(*data)
	if err != nil {
		fatalf("%v", err)
	}
	hf, err := hash.LearnSpectral(dataset.Reservoir(vecs, len(vecs)/10+100, *seed), *bits)
	if err != nil {
		fatalf("learning hash: %v", err)
	}
	codes := hash.HashAll(hf, vecs)

	// Strided sample: a prefix sample is biased on row-ordered (clustered)
	// datasets and dumps the unseen clusters into one partition.
	pivots := histo.Pivots(histo.Sample(codes, 2000), *parts)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	rows := make([][]int, *parts)
	partCodes := make([][]bitvec.Code, *parts)
	for i, c := range codes {
		m := histo.PartitionID(pivots, c)
		rows[m] = append(rows[m], i)
		partCodes[m] = append(partCodes[m], c)
	}
	t0 := time.Now()
	// Each partition streams into its snapshot a chunk at a time (the
	// partition index is never resident at once); Complete writes the empty
	// ones and leaves the directory holding this build and nothing else.
	sd := mrjoin.ShardDir{Dir: *out, Parts: *parts, Bits: *bits, Pivots: pivots, Chunk: *chunk}
	tuples := make([]int, *parts)
	for m := range rows {
		tuples[m] = len(rows[m])
		if tuples[m] == 0 {
			continue
		}
		if err := sd.Write(m, rows[m], partCodes[m]); err != nil {
			fatalf("%v", err)
		}
	}
	paths, err := sd.Complete(tuples)
	if err != nil {
		fatalf("%v", err)
	}
	for m, path := range paths {
		fmt.Printf("haidx: %s: %d tuples\n", path, tuples[m])
	}
	cf, err := os.Create(filepath.Join(*out, "codes.txt"))
	if err != nil {
		fatalf("%v", err)
	}
	cw := bufio.NewWriter(cf)
	for _, c := range codes {
		fmt.Fprintln(cw, c.String())
	}
	if err := cw.Flush(); err != nil {
		fatalf("%v", err)
	}
	cf.Close()
	fmt.Printf("haidx: sharded %d tuples into %d partitions in %v; codes in %s\n",
		len(codes), *parts, time.Since(t0).Round(time.Millisecond), filepath.Join(*out, "codes.txt"))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "haidx: "+format+"\n", args...)
	os.Exit(1)
}

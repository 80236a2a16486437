// Command haidx builds, inspects and queries persisted HA-Index files, all in
// the one index format, the HADX v4 serving arena: the file a MapReduce
// build's reducers write, a broadcast ships, and haserve maps.
//
// Usage:
//
//	hagen -profile NUS-WIDE -n 20000 -o d.csv
//	haidx build -data d.csv -bits 32 -o d.hadx
//	haidx info -index d.hadx
//	haidx search -index d.hadx -data d.csv -query-rows 0,42 -h 3
//	haidx shard -data d.csv -bits 32 -parts 4 -o shards/
//
// The shard subcommand splits the dataset into Gray-code partitions and
// writes one self-describing snapshot per partition (shard-00000.hasn …),
// ready to be served by haserve and queried through haquery. It also writes
// codes.txt (one bit-string per row) so queries can be issued by code.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/hash"
	"haindex/internal/histo"
	"haindex/internal/mrjoin"
)

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: haidx <build|info|search|shard> [flags]")
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "shard":
		cmdShard(os.Args[2:])
	default:
		fatalf("unknown subcommand %q; want build|info|search|shard", os.Args[1])
	}
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	data := fs.String("data", "", "CSV dataset (required)")
	bits := fs.Int("bits", 32, "binary code length")
	out := fs.String("o", "index.hadx", "output index file")
	seed := fs.Int64("seed", 1, "hash-learning sample seed")
	leafless := fs.Bool("leafless", false, "write the Option-B form without tuple-id tables")
	fs.Parse(args)
	if *data == "" {
		fatalf("build: -data is required")
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
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	// H-Build over the packed rows, straight into the arena.
	var rows []uint64
	for _, c := range codes {
		rows = append(rows, c.Words()...)
	}
	t0 := time.Now()
	idx := core.BuildFrozen(*bits, rows, nil, core.Options{})
	buildTime := time.Since(t0)
	if err := idx.EncodeArena(f, !*leafless); err != nil {
		fatalf("encoding: %v", err)
	}
	sz := idx.EncodedSizeArena(!*leafless)
	fmt.Printf("haidx: indexed %d tuples (%d-bit codes) in %v; wrote %s (%.1f KB)\n",
		len(codes), *bits, buildTime.Round(time.Millisecond), *out, float64(sz)/1e3)
	fmt.Println("note: queries must be hashed with the same learned function; keep the dataset and seed")
}

func loadIndex(path string) *core.FrozenIndex {
	idx, err := core.MapFrozen(path)
	if err != nil {
		fatalf("loading %s: %v", path, err)
	}
	return idx
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	fs.Parse(args)
	if *index == "" {
		fatalf("info: -index is required")
	}
	idx := loadIndex(*index)
	fmt.Printf("HA-Index file: %s\n", *index)
	fmt.Printf("  form:           arena (v4, mmap-native)\n")
	fmt.Printf("  code length:    %d bits\n", idx.Length())
	fmt.Printf("  tuples:         %d\n", idx.Len())
	fmt.Printf("  distinct codes: %d\n", idx.GroupCount())
	fmt.Printf("  internal nodes: %d\n", idx.NodeCount())
	fmt.Printf("  edges:          %d\n", idx.EdgeCount())
	fmt.Printf("  memory:         %.1f KB (flat arena)\n", float64(idx.SizeBytes())/1e3)
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	data := fs.String("data", "", "CSV dataset the index was built from (required)")
	rows := fs.String("query-rows", "0", "comma-separated dataset rows used as queries")
	h := fs.Int("h", 3, "Hamming threshold")
	seed := fs.Int64("seed", 1, "hash-learning sample seed used at build time")
	fs.Parse(args)
	if *index == "" || *data == "" {
		fatalf("search: -index and -data are required")
	}
	idx := loadIndex(*index)
	vecs, err := dataset.ReadCSV(*data)
	if err != nil {
		fatalf("%v", err)
	}
	hf, err := hash.LearnSpectral(dataset.Reservoir(vecs, len(vecs)/10+100, *seed), idx.Length())
	if err != nil {
		fatalf("re-learning hash: %v", err)
	}
	sr := core.NewSearcher(idx)
	for _, part := range strings.Split(*rows, ",") {
		row, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || row < 0 || row >= len(vecs) {
			fatalf("invalid query row %q (dataset has %d rows)", part, len(vecs))
		}
		q := hf.Hash(vecs[row])
		t0 := time.Now()
		ids := append([]int(nil), sr.Search(q, *h)...)
		took := time.Since(t0)
		sort.Ints(ids)
		fmt.Printf("row %d: %d matches within h=%d in %v [%d distance computations]\n",
			row, len(ids), *h, took, sr.Stats.DistanceComputations)
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

package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/gray"
	"haindex/internal/histo"
	"haindex/internal/vector"
	"haindex/internal/wire"
)

// clusteredCodes draws n codes in clusters of 1000 around random centers,
// each member 3 random bit flips from its center — near-duplicates around a
// few originals, the shape learned hash codes of real collections have. Ids
// are positions.
func clusteredCodes(rng *rand.Rand, n, nbits int) []bitvec.Code {
	out := make([]bitvec.Code, 0, n)
	for len(out) < n {
		center := bitvec.Rand(rng, nbits)
		for i := 0; i < 1000 && len(out) < n; i++ {
			c := center.Clone()
			for f := 0; f < 3; f++ {
				c.FlipBit(rng.Intn(nbits))
			}
			out = append(out, c)
		}
	}
	return out
}

// collectionSeed fixes the collection mrjoin's R and S are drawn from.
const collectionSeed = 2015

// nuswideLike draws n vectors from one fixed NUS-WIDE-like collection: the
// dataset.NUSWide Gaussian mixture, its cluster centres drawn from
// collectionSeed and the tuples from seed. dataset.Generate draws the centres
// from the seed too, and with them the spectral hash a run learns and the
// number of pairs within the threshold, which then varies by a quarter from
// seed to seed and the join's cost with it; a benchmark wants the seed to
// pick the tuples, not the difficulty. Components are float32 values, as
// feature stores keep them and as the pipeline ships them, so the oracle
// hashes exactly what the reducers hash.
func nuswideLike(n int, seed int64) []vector.Vec {
	p := dataset.NUSWide
	crng := rand.New(rand.NewSource(collectionSeed))
	centers := make([]vector.Vec, p.Clusters)
	for c := range centers {
		centers[c] = make(vector.Vec, p.Dim)
		for j := range centers[c] {
			centers[c][j] = crng.Float64()
		}
	}
	cum := dataset.ZipfWeights(p.Clusters, p.Skew)
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]vector.Vec, n)
	for i := range out {
		c := sort.SearchFloat64s(cum, rng.Float64())
		if c == len(cum) {
			c--
		}
		v := make(vector.Vec, p.Dim)
		for j := range v {
			x := centers[c][j] + rng.NormFloat64()*p.Spread
			v[j] = float64(float32(math.Max(0, math.Min(1, x))))
		}
		out[i] = v
	}
	return out
}

// flipped returns a copy of c with k distinct random bits flipped.
func flipped(rng *rand.Rand, c bitvec.Code, k int) bitvec.Code {
	q := c.Clone()
	for _, b := range rng.Perm(c.Len())[:k] {
		q.FlipBit(b)
	}
	return q
}

// queriesNear derives count queries from distinct stored codes (while count
// <= len(codes)), each k flips away from its source.
func queriesNear(rng *rand.Rand, codes []bitvec.Code, count, k int) []bitvec.Code {
	perm := rng.Perm(len(codes))
	out := make([]bitvec.Code, count)
	for i := range out {
		out[i] = flipped(rng, codes[perm[i%len(perm)]], k)
	}
	return out
}

// oracle is the harness's own brute-force scan: codes packed word by word in
// one slab, XOR and popcount against every one. It defines the right answer
// for every workload and is the baseline speedup_vs_scan divides by. It
// deliberately uses none of the repo's search code.
type oracle struct {
	nw    int
	words []uint64
	ids   []int
}

func newOracle(codes []bitvec.Code, ids []int) *oracle {
	o := &oracle{}
	if len(codes) == 0 {
		return o
	}
	o.nw = len(codes[0].Words())
	o.words = make([]uint64, 0, len(codes)*o.nw)
	o.ids = make([]int, len(codes))
	for i, c := range codes {
		o.words = append(o.words, c.Words()...)
		o.ids[i] = i
		if ids != nil {
			o.ids[i] = ids[i]
		}
	}
	return o
}

func (o *oracle) len() int { return len(o.ids) }

// search appends to dst, in ascending order, the ids within distance h of q.
func (o *oracle) search(dst []int, q bitvec.Code, h int) []int {
	qw := q.Words()
	start := len(dst)
	if o.nw == 1 {
		q0 := qw[0]
		for i, w := range o.words {
			if bits.OnesCount64(w^q0) <= h {
				dst = append(dst, o.ids[i])
			}
		}
	} else {
		for i := range o.ids {
			d := 0
			for j, w := range o.words[i*o.nw : (i+1)*o.nw] {
				d += bits.OnesCount64(w ^ qw[j])
			}
			if d <= h {
				dst = append(dst, o.ids[i])
			}
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// scanFor runs the scan on threads goroutines for about d, over the queries
// from index from on, and returns the queries per second it reached and how
// many queries it used.
func (o *oracle) scanFor(queries []bitvec.Code, from, h, threads int, d time.Duration) (qps float64, used int) {
	t0 := time.Now()
	deadline := t0.Add(d)
	counts := make([]int, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var buf []int
			for i := from + t; counts[t] == 0 || time.Now().Before(deadline); i += threads {
				buf = o.search(buf[:0], queries[i%len(queries)], h)
				counts[t]++
			}
		}(t)
	}
	wg.Wait()
	el := time.Since(t0)
	for _, c := range counts {
		used += c
	}
	return float64(used) / el.Seconds(), used
}

// nominalScanNs is what the scan costs, in thread-nanoseconds per code
// compared, on the sandbox this benchmark was written on while nothing else
// disturbs it. setup_s is reported in that machine's seconds: the seconds
// measured, times nominalScanNs over what the scan cost in the slice run just
// before the set-up. The sandbox runs a fifth to a half slower for minutes at
// a time; a set-up timed in its own seconds reads that, not the program.
const nominalScanNs = 1.6

// nominalSeconds converts d, measured beside a scan slice that reached qps on
// threads goroutines, into seconds of the nominal machine.
func (o *oracle) nominalSeconds(d time.Duration, qps float64, threads int) float64 {
	return d.Seconds() * nominalScanNs / o.scanNsPerCode(qps, threads)
}

// scanNsPerCode turns a scan rate into thread-nanoseconds per code compared.
func (o *oracle) scanNsPerCode(qps float64, threads int) float64 {
	if qps == 0 || o.len() == 0 {
		return 0
	}
	return 1e9 * float64(threads) / (qps * float64(o.len()))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shardSet is a deployment's worth of snapshot files plus what building
// them cost.
type shardSet struct {
	paths  []string
	pivots []bitvec.Code
	// part[m] lists the ids (= positions in codes) of partition m, Gray
	// sorted.
	part [][]int

	pivotsTime time.Duration // histo.Pivots over the sample
	sortTime   time.Duration // gray.Sort of every partition
	writeTime  time.Duration // FrozenStreamWriter + WriteSnapshotStream
	bytes      int64
}

// streamChunk is the streaming builder's chunk size, the haidx default.
const streamChunk = 1 << 18

// writeShards splits codes into Gray-range partitions exactly as "haidx
// shard" does and streams one v4 snapshot per partition into dir.
func writeShards(dir string, codes []bitvec.Code, nbits, parts int) (*shardSet, error) {
	ss := &shardSet{part: make([][]int, parts)}
	t0 := time.Now()
	ss.pivots = histo.Pivots(histo.Sample(codes, 2000), parts)
	ss.pivotsTime = time.Since(t0)
	for i, c := range codes {
		m := histo.PartitionID(ss.pivots, c)
		ss.part[m] = append(ss.part[m], i)
	}
	for m := 0; m < parts; m++ {
		rows := ss.part[m]
		pc := make([]bitvec.Code, len(rows))
		for j, i := range rows {
			pc[j] = codes[i]
		}
		t0 = time.Now()
		gray.Sort(pc, rows)
		ss.sortTime += time.Since(t0)

		path := filepath.Join(dir, fmt.Sprintf("shard-%05d.hasn", m))
		t0 = time.Now()
		if err := streamSnapshot(path, wire.SnapshotMeta{Part: m, Parts: parts, Length: nbits, Pivots: ss.pivots}, pc, rows); err != nil {
			return nil, err
		}
		ss.writeTime += time.Since(t0)
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		ss.bytes += st.Size()
		ss.paths = append(ss.paths, path)
	}
	return ss, nil
}

func streamSnapshot(path string, meta wire.SnapshotMeta, codes []bitvec.Code, ids []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sw, err := core.NewFrozenStreamWriter(meta.Length, streamChunk, core.Options{})
	if err != nil {
		return err
	}
	for j, c := range codes {
		if err := sw.Add(ids[j], c); err != nil {
			sw.Abort()
			return fmt.Errorf("streaming %s: %w", path, err)
		}
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := wire.WriteSnapshotStream(bw, meta, sw); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

package histo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

func clustered(rng *rand.Rand, n, bits, clusters int) []bitvec.Code {
	out := make([]bitvec.Code, 0, n)
	for len(out) < n {
		c := bitvec.Rand(rng, bits)
		for i := 0; i < n/clusters+1 && len(out) < n; i++ {
			v := c.Clone()
			v.FlipBit(rng.Intn(bits))
			out = append(out, v)
		}
	}
	return out
}

// partitionCounts tallies how many codes fall into each of len(pivots)+1
// partitions, the balance diagnostic behind Figure 10a.
func partitionCounts(codes []bitvec.Code, pivots []bitvec.Code) []int {
	out := make([]int, len(pivots)+1)
	for _, c := range codes {
		out[PartitionID(pivots, c)]++
	}
	return out
}

// imbalance returns max/mean of the partition counts (1.0 = perfectly
// balanced, like mapreduce.Metrics.Skew).
func imbalance(counts []int) float64 {
	max, sum := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(counts)))
}

func TestPivotsBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// Heavily skewed codes: all in a few clusters.
	codes := clustered(rng, 4000, 32, 3)
	// Random sample (clustered() emits cluster-by-cluster, so a prefix
	// would all come from one cluster).
	sample := make([]bitvec.Code, 0, 800)
	for _, i := range rng.Perm(len(codes))[:800] {
		sample = append(sample, codes[i])
	}
	pivots := Pivots(sample, 8)
	if len(pivots) != 7 {
		t.Fatalf("pivot count = %d", len(pivots))
	}
	counts := partitionCounts(codes, pivots)
	if got := imbalance(counts); got > 2.5 {
		t.Errorf("histogram pivots imbalance %.2f on skewed data", got)
	}
	// Uniform pivots on the same skewed data should be far worse.
	uni := UniformPivots(32, 8)
	uniCounts := partitionCounts(codes, uni)
	if imbalance(uniCounts) <= imbalance(counts) {
		t.Errorf("uniform pivots (%.2f) should be worse than histogram pivots (%.2f) on skewed data",
			imbalance(uniCounts), imbalance(counts))
	}
}

func TestPivotsSortedAndPartitionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	sample := make([]bitvec.Code, 500)
	for i := range sample {
		sample[i] = bitvec.Rand(rng, 24)
	}
	pivots := Pivots(sample, 6)
	for i := 1; i < len(pivots); i++ {
		if gray.Compare(pivots[i-1], pivots[i]) > 0 {
			t.Fatal("pivots not in gray order")
		}
	}
	// Partition ids are monotone in gray order.
	codes := make([]bitvec.Code, 300)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 24)
	}
	gray.Sort(codes, nil)
	prev := 0
	for _, c := range codes {
		pid := PartitionID(pivots, c)
		if pid < prev {
			t.Fatal("partition ids not monotone in gray order")
		}
		if pid < 0 || pid > len(pivots) {
			t.Fatalf("pid out of range: %d", pid)
		}
		prev = pid
	}
}

func TestPartitionIDBoundaries(t *testing.T) {
	// A code equal to a pivot belongs to the partition at or after it.
	p := bitvec.MustFromString("1010")
	pivots := []bitvec.Code{p}
	if got := PartitionID(pivots, p); got != 1 {
		t.Errorf("code equal to pivot -> partition %d, want 1", got)
	}
}

func TestUniformPivots(t *testing.T) {
	pv := UniformPivots(8, 4)
	if len(pv) != 3 {
		t.Fatalf("count=%d", len(pv))
	}
	// Ranks should be at 1/4, 2/4, 3/4 of the 8-bit rank space.
	wantRanks := []uint64{64, 128, 192}
	for i, p := range pv {
		r := gray.Rank(p).Uint64()
		if r != wantRanks[i] {
			t.Errorf("pivot %d rank = %d want %d", i, r, wantRanks[i])
		}
	}
	if UniformPivots(8, 1) != nil {
		t.Error("1 part needs no pivots")
	}
}

func TestPivotsEdgeCases(t *testing.T) {
	if Pivots(nil, 4) != nil {
		t.Error("empty sample gives no pivots")
	}
	one := []bitvec.Code{bitvec.MustFromString("1")}
	if got := Pivots(one, 1); got != nil {
		t.Error("1 part needs no pivots")
	}
	// More parts than samples still yields parts-1 pivots.
	if got := Pivots(one, 4); len(got) != 3 {
		t.Errorf("got %d pivots", len(got))
	}
}

// TestImbalance checks the balance measure the pivot tests judge by.
func TestImbalance(t *testing.T) {
	if got := imbalance([]int{5, 5, 5, 5}); got != 1 {
		t.Errorf("balanced = %v", got)
	}
	if got := imbalance([]int{20, 0, 0, 0}); got != 4 {
		t.Errorf("skewed = %v", got)
	}
	if got := imbalance(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// Property (testing/quick): every pivot set covers the code space — each
// code lands in exactly one in-range partition, and partition counts sum
// to the input size.
func TestQuickPartitionCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 8 + rng.Intn(56)
		n := 10 + rng.Intn(300)
		parts := 2 + rng.Intn(10)
		codes := make([]bitvec.Code, n)
		for i := range codes {
			codes[i] = bitvec.Rand(rng, bits)
		}
		pivots := Pivots(codes[:1+rng.Intn(n)], parts)
		counts := partitionCounts(codes, pivots)
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n && len(counts) == len(pivots)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSampleBeatsPrefixOnClusteredData: on a row-ordered clustered dataset a
// prefix sample sees only the first cluster and its pivots cram every other
// cluster into the last partition; a strided Sample covers all clusters and
// keeps the split balanced. This is the failure mode haidx shard had when it
// sampled codes[:2000].
func TestSampleBeatsPrefixOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	// clustered() emits cluster-by-cluster, so position correlates with
	// cluster membership — exactly the ordering that biases a prefix.
	codes := clustered(rng, 12000, 32, 6)
	const parts, k = 8, 2000

	prefix := Pivots(codes[:k], parts)
	strided := Pivots(Sample(codes, k), parts)

	prefixImb := imbalance(partitionCounts(codes, prefix))
	stridedImb := imbalance(partitionCounts(codes, strided))
	if stridedImb > 1.5 {
		t.Errorf("strided-sample pivots imbalance %.2f on clustered data", stridedImb)
	}
	if prefixImb < 2*stridedImb {
		t.Errorf("prefix imbalance %.2f not clearly worse than strided %.2f — test dataset no longer exercises the bias",
			prefixImb, stridedImb)
	}
}

func TestSampleEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	codes := make([]bitvec.Code, 100)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 16)
	}
	if got := Sample(codes, 200); len(got) != 100 {
		t.Errorf("k beyond len returns input, got %d", len(got))
	}
	if got := Sample(codes, 0); len(got) != 100 {
		t.Errorf("k=0 returns input, got %d", len(got))
	}
	got := Sample(codes, 7)
	if len(got) != 7 {
		t.Fatalf("len=%d", len(got))
	}
	// Strides must be spread: first pick in the first span, last in the last.
	if !got[0].Equal(codes[100/14]) || !got[6].Equal(codes[13*100/14]) {
		t.Error("sample picks not at span midpoints")
	}
}

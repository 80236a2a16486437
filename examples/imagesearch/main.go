// Imagesearch demonstrates the paper's motivating application: content-based
// image retrieval over high-dimensional feature vectors. A NUS-WIDE-like
// dataset of 225-d color-moment vectors is hashed into 32-bit codes with a
// learned spectral hash; a Dynamic HA-Index answers Hamming-select and
// approximate kNN queries, and the example reports recall against the exact
// scan together with the work saved.
package main

import (
	"fmt"
	"time"

	"haindex"
)

func main() {
	const (
		n    = 30000
		bits = 32
		k    = 10
	)
	fmt.Printf("generating %d synthetic image feature vectors (225-d, NUS-WIDE profile)...\n", n)
	images := haindex.Generate(haindex.NUSWide, n, 42)

	// Learn the similarity hash from a 10%% sample, as the paper's
	// preprocessing phase does.
	t0 := time.Now()
	hashFn, err := haindex.LearnSpectralHash(haindex.Sample(images, n/10, 7), bits)
	if err != nil {
		panic(err)
	}
	fmt.Printf("learned %d-bit spectral hash in %v\n", bits, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	codes := haindex.HashAll(hashFn, images)
	idx := haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{})
	fmt.Printf("hashed and indexed in %v (%d index nodes, %.1f MB)\n\n",
		time.Since(t0).Round(time.Millisecond), idx.NodeCount(), float64(idx.SizeBytes())/1e6)

	// Hamming-select: near-duplicate image lookup.
	query := images[123]
	qcode := hashFn.Hash(query)
	var work haindex.SearchStats
	t0 = time.Now()
	dup := idx.SearchInto(qcode, 3, &work)
	fmt.Printf("Hamming-select h=3 for image #123: %d near-duplicates in %v "+
		"(%d distance computations vs %d for a scan)\n\n",
		len(dup), time.Since(t0).Round(time.Microsecond), work.DistanceComputations, n)

	// Approximate kNN-select via Hamming threshold escalation.
	searcher := haindex.NewHammingKNN(idx, hashFn, images)
	var recallSum float64
	var approxTime, exactTime time.Duration
	const queries = 20
	for i := 0; i < queries; i++ {
		q := images[(i*997)%n]
		t0 = time.Now()
		approx := searcher.Select(q, k)
		approxTime += time.Since(t0)
		t0 = time.Now()
		exact := haindex.ExactKNN(images, q, k)
		exactTime += time.Since(t0)
		recallSum += haindex.Recall(approx, exact)
	}
	fmt.Printf("approximate %d-NN over %d queries:\n", k, queries)
	fmt.Printf("  HA-Index: %v/query   exact scan: %v/query   speedup: %.0fx\n",
		(approxTime / queries).Round(time.Microsecond),
		(exactTime / queries).Round(time.Microsecond),
		float64(exactTime)/float64(approxTime))
	fmt.Printf("  mean recall vs exact: %.2f\n", recallSum/queries)
}

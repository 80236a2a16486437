package haindex_test

import (
	"bytes"
	"fmt"
	"sort"

	"haindex"
)

// ExampleBuildDynamicIndex indexes the paper's Table 2a and runs Example
// 1's Hamming-select.
func ExampleBuildDynamicIndex() {
	codes := []haindex.Code{
		haindex.MustCode("001 001 010"), // t0
		haindex.MustCode("001 011 101"), // t1
		haindex.MustCode("011 001 100"), // t2
		haindex.MustCode("101 001 010"), // t3
		haindex.MustCode("101 110 110"), // t4
		haindex.MustCode("101 011 101"), // t5
		haindex.MustCode("101 101 010"), // t6
		haindex.MustCode("111 001 100"), // t7
	}
	idx := haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{Window: 2})
	ids := idx.Search(haindex.MustCode("101100010"), 3)
	sort.Ints(ids)
	fmt.Println(ids)
	// Output: [0 3 4 6]
}

// ExampleDistance shows the XOR-and-count Hamming distance.
func ExampleDistance() {
	a := haindex.MustCode("101100010")
	b := haindex.MustCode("001001010")
	fmt.Println(haindex.Distance(a, b))
	// Output: 3
}

// ExampleTanimoto computes the Tanimoto coefficient of two fingerprints.
func ExampleTanimoto() {
	a := haindex.MustCode("11110000")
	b := haindex.MustCode("11000000")
	fmt.Println(haindex.Tanimoto(a, b))
	// Output: 0.5
}

// ExampleSemiJoin filters probe tuples to those with a near match.
func ExampleSemiJoin() {
	indexed := []haindex.Code{
		haindex.MustCode("11110000"),
		haindex.MustCode("00001111"),
	}
	idx := haindex.BuildDynamicIndex(indexed, nil, haindex.IndexOptions{})
	probe := []haindex.Code{
		haindex.MustCode("11110001"), // 1 bit from indexed[0]
		haindex.MustCode("10101010"), // far from both
	}
	fmt.Println(haindex.SemiJoin(idx, probe, 2))
	fmt.Println(haindex.AntiJoin(idx, probe, 2))
	// Output:
	// [0]
	// [1]
}

// ExampleFrozenIndex_EncodeArena round-trips an index through its file
// format: freeze it, write the arena, read it back.
func ExampleFrozenIndex_EncodeArena() {
	codes := []haindex.Code{haindex.MustCode("0101"), haindex.MustCode("0111")}
	idx := haindex.FreezeIndex(haindex.BuildDynamicIndex(codes, nil, haindex.IndexOptions{}))
	var buf bytes.Buffer
	if err := idx.EncodeArena(&buf, true); err != nil {
		panic(err)
	}
	back, err := haindex.DecodeFrozenIndex(&buf)
	if err != nil {
		panic(err)
	}
	ids := haindex.NewSearcher(back).Search(haindex.MustCode("0101"), 1)
	sort.Ints(ids)
	fmt.Println(back.Len(), ids)
	// Output: 2 [0 1]
}

// ExampleNewTanimotoIndex screens fingerprints at a Tanimoto threshold.
func ExampleNewTanimotoIndex() {
	prints := []haindex.Code{
		haindex.MustCode("11110000"), // id 0
		haindex.MustCode("11000000"), // id 1: T=0.5 vs id 0
		haindex.MustCode("00001111"), // id 2: disjoint
	}
	idx, err := haindex.NewTanimotoIndex(prints, nil, haindex.IndexOptions{})
	if err != nil {
		panic(err)
	}
	matches, err := idx.Search(prints[0], 0.5)
	if err != nil {
		panic(err)
	}
	for _, m := range matches {
		fmt.Printf("id %d at T=%.2f\n", m.ID, m.Similarity)
	}
	// Output:
	// id 0 at T=1.00
	// id 1 at T=0.50
}

// ExampleNewPlanner shows the cost-based access-path decision.
func ExampleNewPlanner() {
	codes := make([]haindex.Code, 256)
	for i := range codes {
		codes[i] = haindex.MustCode("00000000")
		v := uint64(i)
		for b := 0; b < 8; b++ {
			codes[i].SetBit(b, v>>uint(7-b)&1 == 1)
		}
	}
	p, err := haindex.NewPlanner(codes, nil, haindex.PlannerOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	// At h = L every tuple matches, so the plan expects all 256 answers.
	// Each threshold routes to the engine whose counted work, priced in
	// scanned groups, is cheapest there; counts read no clock, so the same
	// codes and seed give this table on any machine.
	fmt.Println(p.Plan(8).EstimatedResults)
	for _, h := range []int{0, 1, 8} {
		fmt.Println(p.Plan(h).Reason())
	}
	// Output:
	// 256
	// mih 36 beats ha 162 scanned groups at h=0
	// scan 256 beats mih 324 scanned groups at h=1
	// scan: ha, mih over the scan from h=1
}

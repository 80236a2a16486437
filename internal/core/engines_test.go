package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
)

// TestFrozenTopKEquivalence: frozen TopK (native radius escalation with the
// epoch memo) returns exactly the (distance, id) pairs TopKByRadius finds
// through each adapted engine on the same arena: the brute scan and
// multi-index hashing.
func TestFrozenTopKEquivalence(t *testing.T) {
	for _, bitsLen := range []int{32, 128} {
		rng := rand.New(rand.NewSource(int64(1100 + bitsLen)))
		var codes []bitvec.Code
		for len(codes) < 700 {
			center := bitvec.Rand(rng, bitsLen)
			for i := 0; i < 71 && len(codes) < 700; i++ {
				c := center.Clone()
				for f := 0; f < 3; f++ {
					c.FlipBit(rng.Intn(bitsLen))
				}
				codes = append(codes, c)
			}
		}
		queries := make([]bitvec.Code, 32)
		for i := range queries {
			if i%3 == 0 {
				queries[i] = bitvec.Rand(rng, bitsLen)
			} else {
				queries[i] = codes[rng.Intn(len(codes))]
			}
		}
		frozen := core.Freeze(core.BuildDynamic(codes, nil, core.Options{}))
		m, err := mih.FromGroups(frozen.Groups(), mih.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fsr := core.NewSearcher(frozen)
		for _, eng := range []core.Engine{frozen.Groups(), m} {
			esr := core.NewSearcher(core.AsIndex(eng))
			for _, k := range []int{0, 1, 3, 17, 64, len(codes) + 5} {
				for qi, q := range queries {
					gotIDs, gotDists := fsr.TopK(q, k)
					wantIDs, wantDists := esr.TopK(q, k)
					if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotDists, wantDists) {
						t.Fatalf("L=%d %T k=%d q#%d: frozen %v at %v, the engine's %v at %v",
							bitsLen, eng, k, qi, gotIDs, gotDists, wantIDs, wantDists)
					}
				}
			}
		}
	}
}

package gray

import (
	"fmt"
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
)

func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cs := make([]bitvec.Code, 1024)
	for i := range cs {
		cs[i] = bitvec.Rand(rng, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rank(cs[i%1024])
	}
}

func BenchmarkCompare(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cs := make([]bitvec.Code, 1024)
	for i := range cs {
		cs[i] = bitvec.Rand(rng, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(cs[i%1024], cs[(i+1)%1024])
	}
}

func BenchmarkSort10k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	base := make([]bitvec.Code, 10000)
	for i := range base {
		base[i] = bitvec.Rand(rng, 32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := make([]bitvec.Code, len(base))
		copy(cs, base)
		Sort(cs, nil)
	}
}

// clustered draws n length-bit codes around n/200 random centres, each a few
// bit flips away from its centre: the shape hashed data has.
func clustered(rng *rand.Rand, n, length int) []bitvec.Code {
	centres := make([]bitvec.Code, n/200+1)
	for i := range centres {
		centres[i] = bitvec.Rand(rng, length)
	}
	out := make([]bitvec.Code, n)
	for i := range out {
		c := centres[rng.Intn(len(centres))].Clone()
		for f := rng.Intn(6); f > 0; f-- {
			c.FlipBit(rng.Intn(length))
		}
		out[i] = c
	}
	return out
}

// BenchmarkGraySort: one Sort of 150k clustered codes with their ids, at one
// word a code (the serving width) and at three.
func BenchmarkGraySort(b *testing.B) {
	for _, length := range []int{64, 130} {
		b.Run(fmt.Sprintf("L%d", length), func(b *testing.B) {
			base := clustered(rand.New(rand.NewSource(4)), 150000, length)
			cs, ids := make([]bitvec.Code, len(base)), make([]int, len(base))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(cs, base)
				for j := range ids {
					ids[j] = j
				}
				Sort(cs, ids)
			}
		})
	}
}

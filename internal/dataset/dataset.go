// Package dataset provides synthetic workload generators standing in for the
// paper's three real datasets, the paper's ×s scale-up technique, and
// reservoir sampling.
//
// Substitution note (DESIGN.md ("Synthetic datasets for NUS-WIDE, Flickr and
// DBPedia")): the paper evaluates on NUS-WIDE (269,648 images, 225-d
// block-wise color moments), 1M crawled Flickr images (512-d GIST
// descriptors) and 1M DBPedia documents (250 LDA topics). Those corpora are
// not redistributable here, so each profile generates vectors with the same
// dimensionality and a clustered, skewed structure: a Gaussian mixture with
// Zipf-distributed cluster sizes for the image-feature datasets and Dirichlet
// topic mixtures on the simplex for the document dataset. The downstream
// algorithms only see the learned binary codes, so cluster skew and
// dimensionality — which the generators preserve — shape the results.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"haindex/internal/vector"
)

// Profile describes a synthetic dataset family.
type Profile struct {
	Name     string
	Dim      int     // feature dimensionality
	Clusters int     // number of mixture components
	Skew     float64 // Zipf exponent for cluster sizes (0 = uniform)
	Spread   float64 // within-cluster standard deviation
	Simplex  bool    // generate Dirichlet topic mixtures instead of Gaussians
}

// The three dataset profiles used throughout the paper's evaluation.
var (
	// NUSWide mimics NUS-WIDE 225-d block-wise color moments.
	NUSWide = Profile{Name: "NUS-WIDE", Dim: 225, Clusters: 512, Skew: 0.5, Spread: 0.10}
	// Flickr mimics 512-d GIST descriptors of crawled Flickr images.
	Flickr = Profile{Name: "Flickr", Dim: 512, Clusters: 512, Skew: 0.5, Spread: 0.07}
	// DBPedia mimics 250-topic LDA mixtures of Wikipedia abstracts.
	DBPedia = Profile{Name: "DBPedia", Dim: 250, Clusters: 512, Skew: 0.6, Spread: 0.0, Simplex: true}
)

// Profiles lists the three paper datasets in presentation order.
func Profiles() []Profile { return []Profile{NUSWide, Flickr, DBPedia} }

// ProfileByName returns the named profile (case-sensitive, as printed by the
// paper: "NUS-WIDE", "Flickr", "DBPedia").
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q", name)
}

// Generate produces n vectors from the profile, deterministically from seed.
func Generate(p Profile, n int, seed int64) []vector.Vec {
	rng := rand.New(rand.NewSource(seed))
	if p.Simplex {
		return generateSimplex(p, n, rng)
	}
	return generateMixture(p, n, rng)
}

// generateMixture draws from a Gaussian mixture with Zipf cluster weights in
// the unit hypercube, clamped to [0, 1] like normalized image features.
func generateMixture(p Profile, n int, rng *rand.Rand) []vector.Vec {
	centers := make([]vector.Vec, p.Clusters)
	for c := range centers {
		v := make(vector.Vec, p.Dim)
		for i := range v {
			v[i] = rng.Float64()
		}
		centers[c] = v
	}
	weights := ZipfWeights(p.Clusters, p.Skew)
	out := make([]vector.Vec, n)
	for i := range out {
		c := sampleIndex(rng, weights)
		v := make(vector.Vec, p.Dim)
		for j := range v {
			x := centers[c][j] + rng.NormFloat64()*p.Spread
			v[j] = math.Max(0, math.Min(1, x))
		}
		out[i] = v
	}
	return out
}

// generateSimplex draws Dirichlet topic mixtures: each cluster is a Dirichlet
// concentrated on a handful of topics, mimicking LDA document-topic output.
func generateSimplex(p Profile, n int, rng *rand.Rand) []vector.Vec {
	type topicCluster struct {
		hot []int // dominant topics of this cluster
	}
	clusters := make([]topicCluster, p.Clusters)
	for c := range clusters {
		k := 3 + rng.Intn(4)
		hot := make([]int, k)
		for i := range hot {
			hot[i] = rng.Intn(p.Dim)
		}
		clusters[c] = topicCluster{hot: hot}
	}
	weights := ZipfWeights(p.Clusters, p.Skew)
	out := make([]vector.Vec, n)
	for i := range out {
		cl := clusters[sampleIndex(rng, weights)]
		alpha := make(vector.Vec, p.Dim)
		for j := range alpha {
			alpha[j] = 0.05
		}
		for _, t := range cl.hot {
			alpha[t] = 4.0
		}
		out[i] = dirichlet(rng, alpha)
	}
	return out
}

// dirichlet samples from Dir(alpha) via normalized Gamma draws.
func dirichlet(rng *rand.Rand, alpha vector.Vec) vector.Vec {
	v := make(vector.Vec, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		g := gamma(rng, a)
		v[i] = g
		sum += g
	}
	if sum == 0 {
		v[rng.Intn(len(v))] = 1
		return v
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// gamma samples Gamma(shape, 1) using Marsaglia–Tsang, with the boost trick
// for shape < 1.
func gamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ZipfWeights returns k weights proportional to rank^(-s), normalized to
// sum to 1. It shapes the cluster-size skew of every synthetic profile
// here.
func ZipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// sampleIndex draws an index proportionally to the weights (assumed
// normalized).
func sampleIndex(rng *rand.Rand, w []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// ScaleUp applies the paper's synthetic scale-up technique (Section 6): it
// returns a dataset s times the size of d while maintaining the original
// distribution. For each generation, every tuple component t_j is replaced by
// the next larger value observed in dimension j of the original data (the
// largest value maps to itself), producing a shifted copy; generations
// 1..s-1 are appended to the original.
func ScaleUp(d []vector.Vec, s int) []vector.Vec {
	if s <= 1 || len(d) == 0 {
		return d
	}
	dim := len(d[0])
	// Sorted unique values per dimension.
	sorted := make([][]float64, dim)
	for j := 0; j < dim; j++ {
		vals := make([]float64, 0, len(d))
		for _, t := range d {
			vals = append(vals, t[j])
		}
		sort.Float64s(vals)
		vals = dedupFloats(vals)
		sorted[j] = vals
	}
	out := make([]vector.Vec, 0, len(d)*s)
	out = append(out, d...)
	prev := d
	for gen := 1; gen < s; gen++ {
		next := make([]vector.Vec, len(prev))
		for i, t := range prev {
			nt := make(vector.Vec, dim)
			for j := 0; j < dim; j++ {
				nt[j] = successor(sorted[j], t[j])
			}
			next[i] = nt
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

// successor returns the smallest recorded value strictly larger than x, or x
// itself when x is at or beyond the maximum (the paper's boundary rule).
func successor(sorted []float64, x float64) float64 {
	i := sort.SearchFloat64s(sorted, x)
	// Skip equal values to find a strictly larger one.
	for i < len(sorted) && sorted[i] <= x {
		i++
	}
	if i >= len(sorted) {
		return x
	}
	return sorted[i]
}

func dedupFloats(vals []float64) []float64 {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Reservoir draws a uniform random sample of size k from the data using
// Vitter's Algorithm R, deterministically from seed. When k >= len(data) a
// copy of the whole dataset is returned.
func Reservoir(data []vector.Vec, k int, seed int64) []vector.Vec {
	if k >= len(data) {
		out := make([]vector.Vec, len(data))
		copy(out, data)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	res := make([]vector.Vec, k)
	copy(res, data[:k])
	for i := k; i < len(data); i++ {
		j := rng.Intn(i + 1)
		if j < k {
			res[j] = data[i]
		}
	}
	return res
}

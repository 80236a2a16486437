package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no samples. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating between
// the two nearest ranks; 0 for no samples. The input is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tailPercentiles are the candidates a tail figure falls back through, most
// extreme first.
var tailPercentiles = []float64{99, 95, 90, 75}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tail picks the highest candidate percentile at or below want that still has
// at least tailBeyond samples beyond it, and returns it with its value. With
// too few samples for any candidate it reports the median (p = 50).
func tail(sorted []int64, want float64) (p float64, v int64) {
	for _, c := range tailPercentiles {
		if c > want {
			continue
		}
		rank := int(math.Ceil(c / 100 * float64(len(sorted))))
		if len(sorted)-rank >= tailBeyond {
			return c, percentile(sorted, c)
		}
	}
	return 50, percentile(sorted, 50)
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianDur(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

func us(ns float64) float64 { return ns / 1e3 }

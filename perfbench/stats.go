package main

import (
	"math"
	"sort"
)

// minTailBeyond is the fewest samples a reported tail percentile must
// have ranked beyond it; with fewer, the percentile is only the maximum
// of a small sample.
const minTailBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count; NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; NaN when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points that split xs into four equal
// groups, interpolated exactly as Python's statistics.quantiles(xs,
// n=4) does with its default "exclusive" method. It needs at least two
// values; with fewer it returns NaNs.
func quartiles(xs []float64) [3]float64 {
	const n = 4
	ld := len(xs)
	if ld < 2 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := sortedCopy(xs)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// percentile returns the nearest-rank pct-th percentile of xs (pct in
// 1..100) and how many samples rank beyond it. It returns NaN and 0
// when xs is empty.
func percentile(xs []float64, pct int) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := nearestRank(n, pct)
	return sortedCopy(xs)[rank-1], n - rank
}

// nearestRank is the 1-based rank of the pct-th percentile among n
// samples: ceil(pct·n/100) in exact integer arithmetic.
func nearestRank(n, pct int) int {
	return min(max((pct*n+99)/100, 1), n)
}

// samplesForTail returns the fewest samples for which the pct-th
// percentile has minTailBeyond samples beyond it.
func samplesForTail(pct int) int {
	n := minTailBeyond
	for n-nearestRank(n, pct) < minTailBeyond {
		n++
	}
	return n
}

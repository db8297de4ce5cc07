package main

import (
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method), so
// numbers computed here match the ones the benchmark's driver computes.
// v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle value of v (mean of the two middle values for an
// even count). v must not be empty.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks. v must not be empty.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// lowerQuartile is the statistic step times are reported with: interference
// from other processes only ever adds time, so a low quantile over the
// interleaved rounds estimates the program, where a mean or median estimates
// the machine's mood. A single value is returned as is.
func lowerQuartile(v []float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	q1, _, _ := quartiles(v)
	return q1
}

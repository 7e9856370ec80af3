package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the fewest samples that must lie beyond a reported
// percentile; a percentile with a thinner tail is one timer reading, not a
// statistic.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the 1-based nearest rank of percentile p (0 < p <= 100) among
// n samples: the smallest rank r with r >= p/100 * n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail returns how many of n samples lie beyond the nearest-rank p-th
// percentile.
func tail(n int, p float64) int { return n - rank(n, p) }

// percentile returns the nearest-rank p-th percentile of xs and whether at
// least minTail samples lie beyond it. A percentile without that tail must
// not be reported.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1], tail(len(s), p) >= minTail
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

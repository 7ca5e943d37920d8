package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle sample (the mean of the middle two for an
// even count), or 0 for no samples.
func median[T ~int64 | ~float64](s []T) T {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// tailPercentile returns the highest nearest-rank percentile that still
// has at least ten samples beyond it, and its value; ok is false with
// fewer than eleven samples.
func tailPercentile(s []time.Duration) (p float64, v time.Duration, ok bool) {
	n := len(s)
	if n < 11 {
		return 0, 0, false
	}
	c := slices.Clone(s)
	slices.Sort(c)
	rank := n - 11 // n-1-rank = 10 samples lie beyond it
	p = math.Floor(1000*float64(rank+1)/float64(n)) / 10
	return p, c[rank], true
}

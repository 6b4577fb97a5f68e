package main

import (
	"fmt"
	"math"
	"sort"
)

// tailQuantiles are the candidate tail percentiles, highest first. A
// summary reports the highest one that leaves at least minBeyond samples
// above it, so a tail is never read off a handful of points.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

const minBeyond = 10

// summary is a timing distribution under the reporting rule: the median
// plus the highest tail percentile with at least ten samples beyond it,
// and the sample count. TailQ is 0 when n is too small for any tail.
type summary struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

// summarize applies the reporting rule to xs (which it sorts in place).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = rank(xs, 0.5)
	for _, q := range tailQuantiles {
		if beyond(len(xs), q) >= minBeyond {
			s.Tail, s.TailQ = rank(xs, q), q
			break
		}
	}
	return s
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// rank is the nearest-rank q-quantile of sorted xs.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailName labels a tail quantile the way reports print it ("p99",
// "p99.9"); "none" when the sample supports no tail.
func tailName(q float64) string {
	if q == 0 {
		return "none"
	}
	return "p" + trimFloat(q*100)
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", math.Round(f*1000)/1000)
}

// median of xs (sorted in place); 0 for no samples.
func median(xs []float64) float64 {
	return summarize(xs).P50
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

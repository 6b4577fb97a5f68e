// Package stats provides the descriptive statistics used throughout the
// empirical analysis: means, medians, percentiles, standard deviations,
// normalized deviation (coefficient of variation), and empirical CDFs.
//
// All functions treat the input slice as a sample and do not modify it.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the population variance of xs, or 0 for samples of
// fewer than two points.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// NormalizedStdDev returns the coefficient of variation, stddev/mean —
// the variability metric of the paper's Figure 5. It returns 0 when the
// mean is 0.
func NormalizedStdDev(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Median returns the sample median (the 50th percentile), or 0 for an
// empty sample.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample
// and clamps p into [0, 100]. It selects the one or two order
// statistics it needs in expected linear time instead of sorting, and
// returns what interpolating the sorted sample returns (NaNs order
// first, as sort.Float64s places them).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	if p <= 0 {
		return selectKth(s, 0)
	}
	if p >= 100 {
		return selectKth(s, len(s)-1)
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo := selectKth(s, lo)
	if lo == hi {
		return vlo
	}
	// selectKth leaves the larger order statistics in s[hi:] (hi is
	// lo+1), so the next one is their least.
	vhi := least(s[hi:])
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// least returns the first element of xs in sort.Float64s's order:
// NaNs first, then ascending.
func least(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m || (math.IsNaN(x) && !math.IsNaN(m)) {
			m = x
		}
	}
	return m
}

// median3 returns the median of three values, none of them NaN.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = max(a, c)
	}
	return b
}

// selectKth reorders s so that s[k] holds the element sort.Float64s
// would put there, nothing after it orders before it, and returns s[k].
// It is a three-way quickselect (median-of-three pivots, so runs of
// equal values cost one pass) that falls back to sorting the remaining
// range if pivots keep splitting it badly.
func selectKth(s []float64, k int) float64 {
	nan := 0
	for i, x := range s {
		if math.IsNaN(x) {
			s[i], s[nan] = s[nan], x
			nan++
		}
	}
	if k < nan {
		return s[k]
	}
	lo, hi := nan, len(s)
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(s[lo:hi])
			break
		}
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		// Partition s[lo:hi] into < pivot, == pivot, > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := s[i]; {
			case x < pivot:
				s[lt], s[i] = x, s[lt]
				lt++
				i++
			case x > pivot:
				gt--
				s[gt], s[i] = x, s[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return s[k]
		}
	}
	return s[k]
}

// MinMax returns the smallest and largest values of xs. It returns
// (0, 0) for an empty sample.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// CDF is an empirical cumulative distribution function built from a
// sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input is copied.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the number of sample points.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the fraction of the sample that is <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v such that At(v) >= q, for
// q in (0, 1]. It returns 0 for an empty sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Points returns n evenly spaced (value, cumulative fraction) pairs
// suitable for plotting the CDF curve. n must be at least 2.
func (c *CDF) Points(n int) ([]float64, []float64, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("stats: CDF.Points needs n >= 2, got %d", n)
	}
	if len(c.sorted) == 0 {
		return nil, nil, fmt.Errorf("stats: CDF.Points on empty sample")
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		ys[i] = c.At(x)
	}
	return xs, ys, nil
}

// MAPE returns the mean absolute percentage error of predictions against
// actuals, as a fraction (0.05 == 5%). Pairs with a zero actual are
// skipped; if every pair is skipped or the slices are empty or of
// different lengths, an error is returned.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("stats: MAPE length mismatch: %d vs %d", len(actual), len(predicted))
	}
	sum, n := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(predicted[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: MAPE has no usable pairs")
	}
	return sum / float64(n), nil
}

// RelErr returns the signed relative error (predicted-actual)/actual, or
// 0 when actual is 0.
func RelErr(actual, predicted float64) float64 {
	if actual == 0 {
		return 0
	}
	return (predicted - actual) / actual
}

package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); !eqExact(got, 2.5) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestSum(t *testing.T) {
	if Sum(nil) != 0 {
		t.Error("empty sum should be 0")
	}
	if got := Sum([]float64{1.5, 2.5}); !eqExact(got, 4) {
		t.Errorf("Sum = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Error("single-point variance should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !approx(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !approx(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestNormalizedStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := NormalizedStdDev(xs); !approx(got, 0.4, 1e-12) {
		t.Errorf("NormalizedStdDev = %v, want 0.4", got)
	}
	if NormalizedStdDev([]float64{0, 0}) != 0 {
		t.Error("zero-mean normalized stddev should be 0")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
	if got := Median([]float64{3, 1, 2}); !eqExact(got, 2) {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !eqExact(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {105, 50}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input not modified.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if !eqExact(ys[0], 3) {
		t.Error("Percentile modified its input")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if !eqExact(min, -1) || !eqExact(max, 7) {
		t.Errorf("MinMax = %v,%v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Error("empty MinMax should be 0,0")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !approx(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	empty := NewCDF(nil)
	if empty.At(5) != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty CDF should return zeros")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40}, {1.5, 40},
	}
	for _, cse := range cases {
		if got := c.Quantile(cse.q); !eqExact(got, cse.want) {
			t.Errorf("Quantile(%v) = %v, want %v", cse.q, got, cse.want)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4})
	xs, ys, err := c.Points(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("Points lengths %d, %d", len(xs), len(ys))
	}
	if xs[0] != 0 || !eqExact(xs[4], 4) {
		t.Errorf("Points range [%v,%v]", xs[0], xs[4])
	}
	if !eqExact(ys[4], 1) {
		t.Errorf("final cumulative fraction = %v, want 1", ys[4])
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Error("CDF points must be non-decreasing")
		}
	}
	if _, _, err := c.Points(1); err == nil {
		t.Error("Points(1) should error")
	}
	if _, _, err := NewCDF(nil).Points(3); err == nil {
		t.Error("Points on empty CDF should error")
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 0.1, 1e-12) {
		t.Errorf("MAPE = %v, want 0.1", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := MAPE([]float64{0}, []float64{5}); err == nil {
		t.Error("all-zero actuals should error")
	}
	// Zero actuals are skipped, not divided by.
	got, err = MAPE([]float64{0, 100}, []float64{5, 90})
	if err != nil || !approx(got, 0.1, 1e-12) {
		t.Errorf("MAPE with skipped zero = %v, %v", got, err)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(100, 95); !approx(got, -0.05, 1e-12) {
		t.Errorf("RelErr = %v", got)
	}
	if RelErr(0, 5) != 0 {
		t.Error("RelErr with zero actual should be 0")
	}
}

// Property: Median lies between min and max, and is order-invariant.
func TestMedianBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		min, max := MinMax(xs)
		if m < min || m > max {
			return false
		}
		shuffled := make([]float64, len(xs))
		copy(shuffled, xs)
		sort.Float64s(shuffled)
		return eqExact(Median(shuffled), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDF.At is monotone non-decreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		c := NewCDF(xs)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and At roundtrip — At(Quantile(q)) >= q for q in (0,1].
func TestQuantileRoundtripProperty(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := (float64(qRaw%100) + 1) / 100
		c := NewCDF(xs)
		return c.At(c.Quantile(q)) >= q-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: small-integer inputs make these
// aggregates exact in IEEE arithmetic.
func eqExact(a, b float64) bool { return a == b }

// percentileBySort is the copy-and-sort Percentile that order-statistic
// selection replaced, kept as the reference it must reproduce.
func percentileBySort(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// eqExactOrNaN is == with NaN equal to NaN (so -0 equals +0).
func eqExactOrNaN(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// Property: Percentile equals the copy-and-sort reference under == for
// every p, on samples with heavy duplicates, ±Inf, NaN and ±0, and it
// leaves its input untouched.
func TestPercentileMatchesSortProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	ps := []float64{-3, 0, 1e-9, 25, 50, 99.9, 100, 250}
	draw := func(distinct []float64, specialShare float64) float64 {
		if r.Float64() < specialShare {
			return specials[r.Intn(len(specials))]
		}
		if distinct != nil {
			return distinct[r.Intn(len(distinct))]
		}
		return r.NormFloat64() * 1e3
	}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(40)
		if trial%10 == 0 {
			n = 1 + r.Intn(4000)
		}
		var distinct []float64
		if r.Intn(2) == 0 { // heavy duplicates: a handful of values
			distinct = make([]float64, 1+r.Intn(4))
			for i := range distinct {
				distinct[i] = float64(r.Intn(7) - 3)
			}
		}
		specialShare := []float64{0, 0.05, 0.5, 1}[r.Intn(4)]
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw(distinct, specialShare)
		}
		switch r.Intn(4) { // presorted runs are quickselect's classic bad cases
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		orig := append([]float64(nil), xs...)
		for _, p := range ps {
			got, want := Percentile(xs, p), percentileBySort(xs, p)
			if !eqExactOrNaN(got, want) {
				t.Fatalf("trial %d: Percentile(%v, %v) = %v, sort reference %v", trial, xs, p, got, want)
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: Percentile modified its input at %d", trial, i)
			}
		}
	}
}

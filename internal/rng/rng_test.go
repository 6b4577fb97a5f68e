package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	before := *parent
	child1 := parent.Derive(1)
	child2 := parent.Derive(2)
	if parent.state != before.state {
		t.Error("Derive consumed parent state")
	}
	if child1.Uint64() == child2.Uint64() {
		t.Error("derived streams with different labels should differ")
	}
	// Same label derives the same stream.
	c1, c2 := New(7).Derive(9), New(7).Derive(9)
	if c1.Uint64() != c2.Uint64() {
		t.Error("same-label derivation should be deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit %d/10 values over 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestNormalsMatchesNormal checks that Normals(zs) returns, by bits,
// the values len(zs) successive Normal calls return, and leaves the
// same source state, for every length 0..9, from a fresh source and
// from one holding a spare.
func TestNormalsMatchesNormal(t *testing.T) {
	for _, pending := range []bool{false, true} {
		for n := 0; n <= 9; n++ {
			batch, single := New(31), New(31)
			if pending {
				batch.Normal()
				single.Normal()
			}
			zs := make([]float64, n)
			batch.Normals(zs)
			for i, z := range zs {
				if want := single.Normal(); math.Float64bits(z) != math.Float64bits(want) {
					t.Errorf("pending %v, n=%d: zs[%d] = %v, Normal gives %v", pending, n, i, z, want)
				}
			}
			if *batch != *single {
				t.Errorf("pending %v, n=%d: state %+v after Normals, %+v after Normal", pending, n, *batch, *single)
			}
			// The streams stay in step afterwards.
			if a, b := batch.Normal(), single.Normal(); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("pending %v, n=%d: next Normal %v after Normals, %v after Normal", pending, n, a, b)
			}
		}
	}
}

// TestBoxMullerMatchesSinCos checks the one-reduction pair against
// r·math.Cos(θ) and r·math.Sin(θ), by bits, over 10M uniform pairs and
// the ends of v's range, 0 and 1−2⁻⁵³.
func TestBoxMullerMatchesSinCos(t *testing.T) {
	check := func(u, v float64) bool {
		r := math.Sqrt(-2 * math.Log(u))
		theta := 2 * math.Pi * v
		wantC, wantS := r*math.Cos(theta), r*math.Sin(theta)
		c, s := boxMuller(u, v)
		if math.Float64bits(c) != math.Float64bits(wantC) || math.Float64bits(s) != math.Float64bits(wantS) {
			t.Errorf("boxMuller(%v, %v) = (%v, %v), want (%v, %v)", u, v, c, s, wantC, wantS)
			return false
		}
		return true
	}
	check(0.5, 0)
	check(0.5, 1-0x1p-53)
	src := New(5)
	for i := 0; i < 10_000_000; i++ {
		u := src.Float64()
		if u == 0 {
			continue
		}
		if !check(u, src.Float64()) {
			return
		}
	}
}

func TestLogNormalFactor(t *testing.T) {
	s := New(23)
	if f := s.LogNormalFactor(0); !eqExact(f, 1) {
		t.Errorf("sigma=0 factor = %v, want 1", f)
	}
	if f := s.LogNormalFactor(-1); !eqExact(f, 1) {
		t.Errorf("negative sigma factor = %v, want 1", f)
	}
	// For sigma=0.05 the factor should hover tightly around 1.
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		f := s.LogNormalFactor(0.05)
		if f <= 0 {
			t.Fatalf("non-positive factor %v", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("lognormal(0.05) mean = %v, want ~1", mean)
	}
}

// Property: LogNormalFactor's empirical normalized stddev tracks sigma for
// small sigma.
func TestLogNormalCVProperty(t *testing.T) {
	f := func(seed uint64, sigRaw uint8) bool {
		sigma := 0.01 + float64(sigRaw%10)*0.01 // 0.01..0.10
		s := New(seed)
		const n = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := s.LogNormalFactor(sigma)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		sd := math.Sqrt(math.Max(0, sumSq/n-mean*mean))
		cv := sd / mean
		return math.Abs(cv-sigma) < 0.35*sigma+0.002
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Float64 never escapes [0,1) regardless of seed.
func TestFloat64RangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: a non-positive sigma must return exactly 1.
func eqExact(a, b float64) bool { return a == b }

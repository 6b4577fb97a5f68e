package regress

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ceer/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitExactLine(t *testing.T) {
	// y = 3 + 2x, noiseless.
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{5, 7, 9, 11}
	m, err := Fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", m.R2)
	}
	if got := m.Predict([]float64{10}); !approx(got, 23, 1e-6) {
		t.Errorf("Predict(10) = %v, want 23", got)
	}
}

func TestFitMultiFeature(t *testing.T) {
	// y = 1 + 2a + 3b.
	xs := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 5}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 + 2*x[0] + 3*x[1]
	}
	m, err := Fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{4, 2}); !approx(got, 15, 1e-6) {
		t.Errorf("Predict = %v, want 15", got)
	}
}

func TestFitQuadratic(t *testing.T) {
	// y = 2 + x².
	var xs [][]float64
	var ys []float64
	for i := 1; i <= 10; i++ {
		x := float64(i)
		xs = append(xs, []float64{x})
		ys = append(ys, 2+x*x)
	}
	m, err := Fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.R2, 1, 1e-9) {
		t.Errorf("quadratic R2 = %v, want 1", m.R2)
	}
	if got := m.Predict([]float64{12}); !approx(got, 146, 1e-4) {
		t.Errorf("Predict(12) = %v, want 146", got)
	}
}

func TestFitLargeScaleFeatures(t *testing.T) {
	// Byte-scale features (1e8) must not wreck conditioning.
	var xs [][]float64
	var ys []float64
	for i := 1; i <= 20; i++ {
		x := float64(i) * 1e8
		xs = append(xs, []float64{x})
		ys = append(ys, 0.5+3e-9*x)
	}
	m, err := Fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.R2, 1, 1e-6) {
		t.Errorf("R2 = %v with large-scale features", m.R2)
	}
	if got := m.Predict([]float64{25e8}); !approx(got, 0.5+3e-9*25e8, 1e-4) {
		t.Errorf("Predict = %v", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, 1); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}, 1); err == nil {
		t.Error("zero-length features should error")
	}
	if _, err := Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}, 1); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3}, 3); err == nil {
		t.Error("unsupported degree should error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, 1); err == nil {
		t.Error("too few observations should error")
	}
}

func TestFitConstantFeature(t *testing.T) {
	// A feature with zero variance makes XᵀX singular; ridge fallback (or
	// a graceful error) must avoid a bogus result. Here both feature
	// columns are collinear.
	xs := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	ys := []float64{3, 5, 7, 9}
	m, err := Fit(xs, ys, 1)
	if err != nil {
		// A clean error is acceptable.
		return
	}
	// If it fit, predictions on the training manifold must be right.
	if got := m.Predict([]float64{2.5, 5}); !approx(got, 6, 1e-3) {
		t.Errorf("collinear fit Predict = %v, want 6", got)
	}
}

func TestPredictPanicsOnWrongArity(t *testing.T) {
	m, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "predict with") {
				t.Errorf("%s with a wrong feature count: panic %v, want the arity panic", name, r)
			}
		}()
		f()
	}
	mustPanic("Predict", func() { m.Predict([]float64{1, 2}) })
	// The two rows hold two values in all, as two one-feature rows
	// would; each row is still checked.
	mustPanic("RSquared", func() { m.RSquared([][]float64{{1, 2}, {}}, []float64{1, 2}) })
}

func TestRSquaredHeldOut(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{2, 4, 6, 8}
	m, err := Fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2 := m.RSquared([][]float64{{5}, {6}}, []float64{10, 12})
	if !approx(r2, 1, 1e-9) {
		t.Errorf("held-out R2 = %v", r2)
	}
}

func TestModelMAPE(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{2, 4, 6, 8}
	m, err := Fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MAPE(xs, ys); got > 1e-9 {
		t.Errorf("training MAPE = %v, want ~0", got)
	}
	if got := m.MAPE([][]float64{{1}}, []float64{0}); got != 0 {
		t.Errorf("MAPE with zero target = %v, want 0 (skipped)", got)
	}
}

// linearRows samples y = 5 + 2x with unit-scale noise.
func linearRows(seed uint64) ([][]float64, []float64) {
	src := rng.New(seed)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := src.Float64() * 100
		xs = append(xs, []float64{x})
		ys = append(ys, 5+2*x+src.Normal()*0.5)
	}
	return xs, ys
}

// quadraticRows samples y = 1 + 0.1x + 3x² with unit-scale noise.
func quadraticRows(seed uint64) ([][]float64, []float64) {
	src := rng.New(seed)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := src.Float64() * 10
		xs = append(xs, []float64{x})
		ys = append(ys, 1+0.1*x+3*x*x+src.Normal()*0.5)
	}
	return xs, ys
}

func TestSelectPrefersLinearOnLinearData(t *testing.T) {
	xs, ys := linearRows(1)
	m, _, err := Select(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degree != 1 {
		t.Errorf("chose degree %d on linear data", m.Degree)
	}
}

func TestSelectPicksQuadraticOnQuadraticData(t *testing.T) {
	xs, ys := quadraticRows(2)
	m, _, err := Select(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degree != 2 {
		t.Errorf("chose degree %d on quadratic data (R2=%v)", m.Degree, m.R2)
	}
}

func TestSelectSmallSampleFallsBack(t *testing.T) {
	// 2 points: linear fits, quadratic can't, whether selected or forced.
	for _, degree := range []int{0, 2} {
		m, _, err := Select([][]float64{{1}, {2}}, []float64{1, 2}, degree)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if m.Degree != 1 {
			t.Errorf("degree %d: small sample chose degree %d, want the linear fallback", degree, m.Degree)
		}
	}
}

// TestSelectErrors pins the failure cases: a forced quadratic that
// cannot fall back reports the quadratic's own error, and an unknown
// degree is rejected.
func TestSelectErrors(t *testing.T) {
	_, _, err := Select([][]float64{{1}}, []float64{1}, 2)
	if err == nil || !strings.Contains(err.Error(), "3 parameters") {
		t.Errorf("forced quadratic on one row: err = %v, want the quadratic's insufficient-rows error", err)
	}
	if _, _, err := Select([][]float64{{1}}, []float64{1}, 0); err == nil {
		t.Error("selection on one row should fail with the linear fit")
	}
	xs, ys := linearRows(3)
	if _, _, err := Select(xs, ys, 3); err == nil {
		t.Error("degree 3 should be rejected")
	}
}

// TestSelectReturnsItsFitsStats pins that the statistics Select returns
// are those its chosen model's own fit accumulated: they equal an
// accumulator of the model's shape (StatsForModel) fed the same rows,
// compared through State, and re-solving them reproduces the model.
func TestSelectReturnsItsFitsStats(t *testing.T) {
	linX, linY := linearRows(4)
	quadX, quadY := quadraticRows(5)
	cases := []struct {
		name       string
		xs         [][]float64
		ys         []float64
		degree     int
		wantDegree int
	}{
		{"selected linear", linX, linY, 0, 1},
		{"selected quadratic", quadX, quadY, 0, 2},
		{"forced linear", quadX, quadY, 1, 1},
		{"forced quadratic", linX, linY, 2, 2},
		{"forced quadratic fallback", [][]float64{{1}, {2}}, []float64{1, 2}, 2, 1},
	}
	for _, c := range cases {
		m, st, err := Select(c.xs, c.ys, c.degree)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Degree != c.wantDegree {
			t.Fatalf("%s: chose degree %d, want %d", c.name, m.Degree, c.wantDegree)
		}
		ref, err := StatsForModel(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.xs {
			ref.Add(c.xs[i], c.ys[i])
		}
		if got, want := mustState(t, st), mustState(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: Select's statistics are not its model's fit:\n got %s\nwant %s", c.name, got, want)
		}
		re, err := st.Solve()
		if err != nil {
			t.Fatalf("%s: re-solving: %v", c.name, err)
		}
		if re.Degree != m.Degree || !coefsIdentical(re.Coef, m.Coef) {
			t.Errorf("%s: re-solving the statistics gives %+v, want %+v", c.name, re, m)
		}
	}
}

// Property: Fit recovers a planted linear model to high precision from
// noiseless data.
func TestFitRecoversPlantedModelProperty(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw, cRaw int8) bool {
		a := float64(aRaw)
		b := float64(bRaw)
		c := float64(cRaw)
		src := rng.New(seed)
		var xs [][]float64
		var ys []float64
		for i := 0; i < 30; i++ {
			x1 := src.Float64()*50 + 1
			x2 := src.Float64()*20 + 1
			xs = append(xs, []float64{x1, x2})
			ys = append(ys, a+b*x1+c*x2)
		}
		m, err := Fit(xs, ys, 1)
		if err != nil {
			return false
		}
		probe := []float64{13, 7}
		want := a + b*13 + c*7
		got := m.Predict(probe)
		return math.Abs(got-want) <= 1e-5*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: R² on the training data never exceeds 1 and, for the chosen
// degree-2 model on degree-2 data, is at least the linear model's R².
func TestQuadraticAtLeastLinearProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var xs [][]float64
		var ys []float64
		for i := 0; i < 40; i++ {
			x := src.Float64() * 10
			xs = append(xs, []float64{x})
			ys = append(ys, 2+x+0.5*x*x+src.Normal())
		}
		lin, err1 := Fit(xs, ys, 1)
		quad, err2 := Fit(xs, ys, 2)
		if err1 != nil || err2 != nil {
			return false
		}
		return quad.R2 >= lin.R2-1e-9 && quad.R2 <= 1+1e-9 && lin.R2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: Vandermonde rows and JSON round-trips
// are exact.
func eqExact(a, b float64) bool { return a == b }

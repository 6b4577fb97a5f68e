package regress

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ceer/internal/rng"
)

// synthRows builds a deterministic synthetic training set: nf features
// with wildly different magnitudes (exercising the normalization path)
// and a noisy quadratic target.
func synthRows(seed uint64, nf, n int) ([][]float64, []float64) {
	src := rng.New(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, nf)
		for j := range x {
			x[j] = (1 + src.Float64()*100) * math.Pow(10, float64(j%3))
		}
		xs[i] = x
		y := 0.5
		for j, v := range x {
			y += float64(j+1) * 0.01 * v
			y += 1e-6 * v * v
		}
		ys[i] = y * (1 + 0.05*src.Normal())
	}
	return xs, ys
}

// scaleFor mirrors the batch fit's normalization: per-feature max-abs.
func scaleFor(xs [][]float64) []float64 {
	scale := make([]float64, len(xs[0]))
	for j := range scale {
		maxAbs := 0.0
		for _, x := range xs {
			if a := math.Abs(x[j]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		scale[j] = maxAbs
	}
	return scale
}

// mustStats builds a SuffStats accumulator or fails the test: the
// constructor only rejects malformed shapes, which these tests never
// pass on purpose.
func mustStats(t *testing.T, nf, degree int, scale []float64) *SuffStats {
	t.Helper()
	s, err := NewSuffStats(nf, degree, scale)
	if err != nil {
		t.Fatalf("NewSuffStats(%d, %d): %v", nf, degree, err)
	}
	return s
}

// coefsIdentical reports whether two coefficient vectors match bit for
// bit.
func coefsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSuffStatsIncrementalMatchesFit pins the tentpole contract:
// feeding rows one at a time through Add and solving reproduces the
// batch Fit coefficients bit for bit (same scale, same accumulation
// order), and the moment-form R² agrees with the residual-sum form to
// well under 1e-12 relative.
func TestSuffStatsIncrementalMatchesFit(t *testing.T) {
	for _, degree := range []int{1, 2} {
		for _, nf := range []int{1, 2, 4} {
			xs, ys := synthRows(uint64(1000+10*degree+nf), nf, 60)
			batch, err := Fit(xs, ys, degree)
			if err != nil {
				t.Fatalf("Fit(degree=%d, nf=%d): %v", degree, nf, err)
			}
			s, err := NewSuffStats(nf, degree, scaleFor(xs))
			if err != nil {
				t.Fatal(err)
			}
			for i := range xs {
				s.Add(xs[i], ys[i])
			}
			inc, err := s.Solve()
			if err != nil {
				t.Fatalf("Solve(degree=%d, nf=%d): %v", degree, nf, err)
			}
			if !coefsIdentical(batch.Coef, inc.Coef) {
				t.Errorf("degree=%d nf=%d: incremental coefficients diverge\nbatch: %v\n  inc: %v",
					degree, nf, batch.Coef, inc.Coef)
			}
			if rel := math.Abs(inc.R2-batch.R2) / math.Abs(batch.R2); rel > 1e-12 {
				t.Errorf("degree=%d nf=%d: moment R² %v vs residual R² %v (rel %v)",
					degree, nf, inc.R2, batch.R2, rel)
			}
			if inc.N != batch.N || inc.Degree != batch.Degree || inc.NumFeatures != batch.NumFeatures {
				t.Errorf("degree=%d nf=%d: metadata mismatch: %+v vs %+v", degree, nf, inc, batch)
			}
		}
	}
}

// TestFitStatsAgreesWithFit pins that FitStats returns both the exact
// Fit model and an accumulator whose Solve reproduces it.
func TestFitStatsAgreesWithFit(t *testing.T) {
	xs, ys := synthRows(7, 3, 50)
	plain, err := Fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, s, err := FitStats(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !coefsIdentical(plain.Coef, m.Coef) || !eqExact(plain.R2, m.R2) {
		t.Errorf("FitStats model diverges from Fit: %+v vs %+v", m, plain)
	}
	if s.N() != len(xs) {
		t.Errorf("stats N = %d, want %d", s.N(), len(xs))
	}
	resolved, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !coefsIdentical(resolved.Coef, m.Coef) {
		t.Error("re-solving FitStats accumulator changes coefficients")
	}
}

// mustState encodes the accumulator's state the way persist does.
func mustState(t *testing.T, s *SuffStats) []byte {
	t.Helper()
	data, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSuffStatsStateRoundTrip pins the codec contract on persist's own
// path, State then JSON then RestoreSuffStats: encode → decode → encode
// is byte-stable, and a restored accumulator continues bit-identically
// to the original.
func TestSuffStatsStateRoundTrip(t *testing.T) {
	xs, ys := synthRows(31, 2, 30)
	s := mustStats(t, 2, 2, scaleFor(xs))
	s.SetResidualWindowCap(4)
	for i := 0; i < 20; i++ {
		s.Add(xs[i], ys[i])
		s.AddResidual(ys[i]*0.9, ys[i])
	}
	data := mustState(t, s)
	var st SuffStatsState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSuffStats(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, mustState(t, restored)) {
		t.Error("state codec is not byte-stable across a round trip")
	}
	// Continue both and compare: restored must be indistinguishable.
	for i := 20; i < 30; i++ {
		s.Add(xs[i], ys[i])
		s.AddResidual(ys[i]*1.2, ys[i])
		restored.Add(xs[i], ys[i])
		restored.AddResidual(ys[i]*1.2, ys[i])
	}
	if !bytes.Equal(mustState(t, s), mustState(t, restored)) {
		t.Error("restored accumulator diverges from the original after further Adds")
	}
	ms, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := restored.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !coefsIdentical(ms.Coef, mr.Coef) {
		t.Error("restored accumulator solves to different coefficients")
	}
}

// TestSuffStatsStateErrors rejects malformed states.
func TestSuffStatsStateErrors(t *testing.T) {
	good := mustStats(t, 2, 1, []float64{1, 2})
	good.Add([]float64{1, 2}, 3)
	base := good.State()
	cases := []struct {
		name   string
		mutate func(st *SuffStatsState)
		want   string
	}{
		{"bad degree", func(st *SuffStatsState) { st.Degree = 3 }, "unsupported degree"},
		{"no features", func(st *SuffStatsState) { st.NumFeatures = 0; st.Scale = nil }, "at least one feature"},
		{"scale arity", func(st *SuffStatsState) { st.Scale = st.Scale[:1] }, "scale divisors"},
		{"zero scale", func(st *SuffStatsState) { st.Scale = []float64{1, 0} }, "zero scale divisor"},
		{"xtx arity", func(st *SuffStatsState) { st.XTX = st.XTX[:2] }, "xtx entries"},
		{"xty arity", func(st *SuffStatsState) { st.XTY = st.XTY[:1] }, "xty entries"},
		{"negative n", func(st *SuffStatsState) { st.N = -1 }, "negative n"},
		{"negative cap", func(st *SuffStatsState) { st.ResCap = -1 }, "negative residual cap"},
		{"window overflow", func(st *SuffStatsState) { st.ResCap = 1; st.Residuals = []float64{1, 2}; st.ResTotal = 2 }, "over cap"},
		{"total undercount", func(st *SuffStatsState) { st.ResCap = 4; st.Residuals = []float64{1, 2}; st.ResTotal = 1 }, "counts 1 residuals"},
		{"nan xtx", func(st *SuffStatsState) { st.XTX = append([]float64(nil), st.XTX...); st.XTX[0] = math.NaN() }, "non-finite"},
	}
	for _, tc := range cases {
		st := base
		tc.mutate(&st)
		if _, err := RestoreSuffStats(st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSuffStatsResidualWindow exercises the drift-statistic window:
// MAPE, sign runs, eviction, and cap changes.
func TestSuffStatsResidualWindow(t *testing.T) {
	s := mustStats(t, 1, 1, []float64{1})
	s.SetResidualWindowCap(4)
	// Residuals: +0.1, -0.1, +0.2, +0.2 → MAPE 0.15, max sign run 2.
	s.AddResidual(1.1, 1.0)
	s.AddResidual(0.9, 1.0)
	s.AddResidual(1.2, 1.0)
	s.AddResidual(1.2, 1.0)
	if got := s.WindowFill(); got != 4 {
		t.Fatalf("WindowFill = %d, want 4", got)
	}
	if got := s.WindowMAPE(); !approx(got, 0.15, 1e-15) {
		t.Errorf("WindowMAPE = %v, want 0.15", got)
	}
	if got := s.WindowMaxSignRun(); got != 2 {
		t.Errorf("WindowMaxSignRun = %v, want 2", got)
	}
	// Zero actual is skipped entirely.
	s.AddResidual(5, 0)
	if got := s.ResidualCount(); got != 4 {
		t.Errorf("ResidualCount after zero actual = %d, want 4", got)
	}
	// Eviction: a fifth residual displaces the oldest (+0.1), leaving
	// -0.1, +0.2, +0.2, +0.3 → max sign run 3.
	s.AddResidual(1.3, 1.0)
	if got := s.WindowMaxSignRun(); got != 3 {
		t.Errorf("WindowMaxSignRun after eviction = %v, want 3", got)
	}
	if got := s.ResidualCount(); got != 5 {
		t.Errorf("ResidualCount = %d, want 5", got)
	}
	win := s.ResidualWindow()
	if len(win) != 4 || !approx(win[0], -0.1, 1e-15) || !approx(win[3], 0.3, 1e-15) {
		t.Errorf("ResidualWindow = %v", win)
	}
	// Shrinking the cap keeps the most recent entries.
	s.SetResidualWindowCap(2)
	win = s.ResidualWindow()
	if len(win) != 2 || !approx(win[0], 0.2, 1e-15) || !approx(win[1], 0.3, 1e-15) {
		t.Errorf("ResidualWindow after shrink = %v", win)
	}
	// Zero cap disables the window but keeps counting.
	s.SetResidualWindowCap(0)
	s.AddResidual(2, 1)
	if s.WindowFill() != 0 || s.ResidualCount() != 6 {
		t.Errorf("zero-cap window: fill=%d count=%d", s.WindowFill(), s.ResidualCount())
	}
	if got := s.WindowMAPE(); !eqExact(got, 0) {
		t.Errorf("empty-window MAPE = %v, want 0", got)
	}
	if got := s.WindowMaxSignRun(); got != 0 {
		t.Errorf("empty-window sign run = %d, want 0", got)
	}
}

// TestSuffStatsAddPanicsOnWidth pins the Predict-style arity panic.
func TestSuffStatsAddPanicsOnWidth(t *testing.T) {
	s := mustStats(t, 2, 1, []float64{1, 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Add accepted a mis-sized feature vector")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "suffstats add") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	s.Add([]float64{1}, 2)
}

// TestSuffStatsSolveInsufficient requires at least NumParams rows.
func TestSuffStatsSolveInsufficient(t *testing.T) {
	s := mustStats(t, 2, 2, []float64{1, 1})
	s.Add([]float64{1, 2}, 3)
	if _, err := s.Solve(); err == nil || !strings.Contains(err.Error(), "insufficient") {
		t.Errorf("Solve error = %v", err)
	}
}

// TestStatsForModel seeds an empty accumulator from a fitted model's
// shape, the upgrade path for predictors saved without statistics.
func TestStatsForModel(t *testing.T) {
	xs, ys := synthRows(41, 2, 30)
	m, err := Fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StatsForModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 0 || s.Degree() != 2 || s.NumFeatures() != 2 {
		t.Errorf("StatsForModel shape: n=%d degree=%d nf=%d", s.N(), s.Degree(), s.NumFeatures())
	}
	// Its scale must match the model's, bit for bit: re-accumulating
	// the training rows and solving reproduces the model.
	for i := range xs {
		s.Add(xs[i], ys[i])
	}
	re, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !coefsIdentical(re.Coef, m.Coef) {
		t.Error("StatsForModel + training rows does not reproduce the model")
	}
}

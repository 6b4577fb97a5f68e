// Streaming sufficient statistics for polynomial least squares.
//
// SuffStats dissolves the batch-only Fit contract: instead of
// materializing every training row and then solving, the normal
// equations XᵀX β = Xᵀy are accumulated one observation at a time, so
// the same machinery serves the batch campaign (Fit is now a thin
// wrapper) and incremental rank-1 calibration updates from live
// observations. A byte-stable state codec (State / RestoreSuffStats)
// mirrors the trace accumulator codec, so sufficient statistics
// persist alongside fitted coefficients and a restored accumulator
// continues exactly where the saved one stopped.
//
// The accumulation arithmetic — feature normalization, polynomial
// expansion, the upper-triangle products, and their summation order —
// is exactly the loop the batch Fit ran before the refactor, so a
// batch fit over SuffStats reproduces the pre-refactor coefficients
// bit for bit.

package regress

import (
	"errors"
	"fmt"
	"math"
)

// SuffStats accumulates the sufficient statistics of a polynomial
// least-squares fit: XᵀX, Xᵀy, the observation count, the first two
// moments of y (for the moment-form R²), and a bounded window of
// recent prediction residuals (for drift detection; see
// AddResidual). The feature normalization divisors are fixed at
// construction: they are part of the model contract, not of the data,
// so incremental updates to an existing model reuse its scale.
type SuffStats struct {
	degree int
	nf     int
	scale  []float64
	p      int // 1 (intercept) + expanded feature count

	n           int
	xtx         []float64 // upper triangle of XᵀX, row-major: p(p+1)/2 entries
	xty         []float64 // p entries
	sumY, sumY2 float64

	// Windowed residual moments: a ring of the most recent signed
	// relative residuals (pred-actual)/|actual|, plus the lifetime
	// count of residuals observed. The window is runtime drift state;
	// the codec carries it so a calibration loop can checkpoint
	// mid-window.
	resCap   int
	res      []float64 // ring storage, len <= resCap
	resNext  int       // ring write position
	resTotal int

	// scratch buffers reused across Add calls (one accumulator is
	// single-writer; see the concurrency note on Add).
	scaled []float64
	row    []float64
}

// NewSuffStats creates an empty accumulator for numFeatures raw
// features expanded to the given degree (1 or 2), normalized by the
// per-feature divisors in scale (all non-zero; the slice is copied).
func NewSuffStats(numFeatures, degree int, scale []float64) (*SuffStats, error) {
	if numFeatures <= 0 {
		return nil, errors.New("regress: suffstats need at least one feature")
	}
	if degree != 1 && degree != 2 {
		return nil, fmt.Errorf("regress: unsupported degree %d", degree)
	}
	if len(scale) != numFeatures {
		return nil, fmt.Errorf("regress: %d scale divisors for %d features", len(scale), numFeatures)
	}
	for i, s := range scale {
		if s == 0 {
			return nil, fmt.Errorf("regress: zero scale divisor at feature %d", i)
		}
	}
	p := 1 + expandedLen(numFeatures, degree)
	return &SuffStats{
		degree: degree,
		nf:     numFeatures,
		scale:  append([]float64(nil), scale...),
		p:      p,
		xtx:    make([]float64, p*(p+1)/2),
		xty:    make([]float64, p),
		scaled: make([]float64, numFeatures),
		row:    make([]float64, p),
	}, nil
}

// StatsForModel creates an empty accumulator matching a fitted model's
// shape — same degree, feature count, and normalization — the seed for
// calibrating a model whose training statistics were not persisted
// (e.g. a predictor file written before the v3 format).
func StatsForModel(m *Model) (*SuffStats, error) {
	return NewSuffStats(m.NumFeatures, m.Degree, m.scale)
}

// expandedLen is the length of Expand's output for nf raw features.
func expandedLen(nf, degree int) int {
	if degree <= 1 {
		return nf
	}
	return nf + nf*(nf+1)/2
}

// NumFeatures returns the raw feature dimensionality.
func (s *SuffStats) NumFeatures() int { return s.nf }

// Degree returns the polynomial expansion degree.
func (s *SuffStats) Degree() int { return s.degree }

// NumParams returns the fitted parameter count (intercept included) —
// the minimum observation count Solve requires.
func (s *SuffStats) NumParams() int { return s.p }

// N returns the number of observations accumulated.
func (s *SuffStats) N() int { return s.n }

// Scale returns the per-feature normalization divisors (shared slice;
// do not modify).
func (s *SuffStats) Scale() []float64 { return s.scale }

// CompatibleWith verifies the accumulator matches a fitted model's
// shape — same degree, feature count, and bit-identical normalization
// divisors — so its Adds continue that model's fit rather than
// accumulate onto a different design.
func (s *SuffStats) CompatibleWith(m *Model) error {
	if m.Degree != s.degree || m.NumFeatures != s.nf {
		return fmt.Errorf("regress: suffstats shape (%d features, degree %d) does not match model (%d, %d)",
			s.nf, s.degree, m.NumFeatures, m.Degree)
	}
	for i := range s.scale {
		if math.Float64bits(s.scale[i]) != math.Float64bits(m.scale[i]) {
			return fmt.Errorf("regress: suffstats scale differs from model scale at feature %d", i)
		}
	}
	return nil
}

// Add folds one observation into the statistics: the raw feature
// vector x (which must have NumFeatures entries; Add panics otherwise,
// like Predict) and its target y. The arithmetic — normalize, expand,
// accumulate upper-triangle products in row-major order — is exactly
// the batch fit's loop, so adding rows one at a time is bit-identical
// to the pre-refactor materialized accumulation.
//
// An accumulator is single-writer: Add, Merge, and AddResidual must
// not race with each other or with Solve (they share scratch state).
func (s *SuffStats) Add(x []float64, y float64) {
	if len(x) != s.nf {
		panic(fmt.Sprintf("regress: suffstats add with %d features, want %d", len(x), s.nf))
	}
	for j := range x {
		s.scaled[j] = x[j] / s.scale[j]
	}
	row := s.row
	row[0] = 1
	copy(row[1:], s.scaled)
	if s.degree >= 2 {
		ci := 1 + s.nf
		for i := 0; i < s.nf; i++ {
			for j := i; j < s.nf; j++ {
				row[ci] = s.scaled[i] * s.scaled[j]
				ci++
			}
		}
	}
	k := 0
	for r := 0; r < s.p; r++ {
		for c := r; c < s.p; c++ {
			s.xtx[k] += row[r] * row[c]
			k++
		}
		s.xty[r] += row[r] * y
	}
	s.sumY += y
	s.sumY2 += y * y
	s.n++
}

// Solve fits the model from the accumulated statistics: Gaussian
// elimination with partial pivoting over the (mirrored) normal
// equations, with the same small ridge fallback the batch fit uses, so
// a Solve over batch-accumulated rows reproduces Fit's coefficients
// bit for bit. R² is computed in moment form (SS_res from XᵀX, Xᵀy,
// Σy²), algebraically equal to the residual-sum definition and within
// ~1e-12 relative of it numerically. At least NumParams observations
// are required.
func (s *SuffStats) Solve() (*Model, error) {
	if s.n < s.p {
		return nil, fmt.Errorf("regress: %d observations insufficient for %d parameters", s.n, s.p)
	}
	a, b := s.normalEquations()
	coef, err := solve(a, b)
	if err != nil {
		// Ridge fallback: add a small diagonal penalty scaled to the
		// matrix magnitude. Like the historical batch fit, the penalty
		// is applied to the (partially eliminated) system solve left
		// behind, preserving its exact coefficients on singular
		// designs.
		lambda := 0.0
		for i := 0; i < s.p; i++ {
			lambda += a[i][i]
		}
		lambda = lambda / float64(s.p) * 1e-8
		for i := 0; i < s.p; i++ {
			a[i][i] += lambda
		}
		coef, err = solve(a, b)
		if err != nil {
			return nil, err
		}
	}
	m := &Model{
		Degree:      s.degree,
		NumFeatures: s.nf,
		Coef:        coef,
		N:           s.n,
		scale:       append([]float64(nil), s.scale...),
	}
	m.R2 = s.rSquaredFor(coef)
	return m, nil
}

// normalEquations materializes the full symmetric XᵀX and a copy of
// Xᵀy for the destructive solver.
func (s *SuffStats) normalEquations() ([][]float64, []float64) {
	a := make([][]float64, s.p)
	for r := range a {
		a[r] = make([]float64, s.p)
	}
	k := 0
	for r := 0; r < s.p; r++ {
		for c := r; c < s.p; c++ {
			a[r][c] = s.xtx[k]
			k++
		}
	}
	for r := 1; r < s.p; r++ {
		for c := 0; c < r; c++ {
			a[r][c] = a[c][r]
		}
	}
	b := append([]float64(nil), s.xty...)
	return a, b
}

// rSquaredFor computes R² for a coefficient vector from the moments:
// SS_res = Σy² − 2βᵀXᵀy + βᵀ(XᵀX)β, SS_tot = Σy² − (Σy)²/n, with the
// same degenerate-case conventions as the sample-based rSquared.
func (s *SuffStats) rSquaredFor(coef []float64) float64 {
	if s.n == 0 {
		return 0
	}
	quad := 0.0
	k := 0
	for r := 0; r < s.p; r++ {
		for c := r; c < s.p; c++ {
			v := s.xtx[k] * coef[r] * coef[c]
			if c > r {
				v *= 2
			}
			quad += v
			k++
		}
	}
	lin := 0.0
	for r := 0; r < s.p; r++ {
		lin += coef[r] * s.xty[r]
	}
	ssRes := s.sumY2 - 2*lin + quad
	ssTot := s.sumY2 - s.sumY*s.sumY/float64(s.n)
	// Guard the floating-point floor: both sums are non-negative by
	// construction.
	if ssRes < 0 {
		ssRes = 0
	}
	if ssTot <= 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// SetResidualWindowCap sets the residual window capacity, preserving
// the most recent min(cap, held) residuals. A zero cap disables the
// window.
func (s *SuffStats) SetResidualWindowCap(cap int) {
	if cap < 0 {
		cap = 0
	}
	kept := s.windowInOrder()
	if len(kept) > cap {
		kept = kept[len(kept)-cap:]
	}
	s.resCap = cap
	s.res = append(s.res[:0], kept...)
	s.resNext = len(s.res) % maxInt(cap, 1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ResetResidualWindow empties the window (capacity and lifetime count
// are kept) — called after a refit so the new model is judged only on
// residuals it produced.
func (s *SuffStats) ResetResidualWindow() {
	s.res = s.res[:0]
	s.resNext = 0
}

// AddResidual records one live prediction residual — the signed
// relative error (pred − actual)/|actual| — into the bounded window.
// Observations with a zero actual are skipped (relative error is
// undefined there), mirroring MAPE.
func (s *SuffStats) AddResidual(pred, actual float64) {
	if actual == 0 {
		return
	}
	s.addResidualValue((pred - actual) / math.Abs(actual))
}

func (s *SuffStats) addResidualValue(rel float64) {
	s.resTotal++
	if s.resCap == 0 {
		return
	}
	if len(s.res) < s.resCap {
		s.res = append(s.res, rel)
		s.resNext = len(s.res) % s.resCap
		return
	}
	s.res[s.resNext] = rel
	s.resNext = (s.resNext + 1) % s.resCap
}

// windowInOrder returns the window's residuals oldest-first.
func (s *SuffStats) windowInOrder() []float64 {
	if len(s.res) < s.resCap || s.resNext == 0 {
		return append([]float64(nil), s.res...)
	}
	out := make([]float64, 0, len(s.res))
	out = append(out, s.res[s.resNext:]...)
	out = append(out, s.res[:s.resNext]...)
	return out
}

// ResidualWindow returns the residuals currently held, oldest first.
func (s *SuffStats) ResidualWindow() []float64 { return s.windowInOrder() }

// ResidualWindowCap returns the window capacity.
func (s *SuffStats) ResidualWindowCap() int { return s.resCap }

// ResidualCount returns the lifetime number of residuals observed
// (including ones evicted from the window).
func (s *SuffStats) ResidualCount() int { return s.resTotal }

// WindowFill returns how many residuals the window currently holds.
func (s *SuffStats) WindowFill() int { return len(s.res) }

// WindowMAPE returns the mean absolute relative residual over the
// window (0 when empty), summed oldest-first for determinism.
func (s *SuffStats) WindowMAPE() float64 {
	w := s.windowInOrder()
	if len(w) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range w {
		sum += math.Abs(r)
	}
	return sum / float64(len(w))
}

// WindowMaxSignRun returns the length of the longest run of
// same-signed residuals in the window. Exact zeros break runs. A long
// run is the signature of systematic bias — a drifted model is
// consistently over- or under-predicting — where healthy noise
// alternates sign.
func (s *SuffStats) WindowMaxSignRun() int {
	w := s.windowInOrder()
	best, run, sign := 0, 0, 0
	for _, r := range w {
		var sgn int
		switch {
		case r > 0:
			sgn = 1
		case r < 0:
			sgn = -1
		default:
			sgn = 0
		}
		if sgn != 0 && sgn == sign {
			run++
		} else if sgn != 0 {
			sign, run = sgn, 1
		} else {
			sign, run = 0, 0
		}
		if run > best {
			best = run
		}
	}
	return best
}

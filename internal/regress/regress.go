// Package regress implements the regression machinery of Ceer: ordinary
// least squares over multi-dimensional features with quadratic (degree-2
// polynomial) expansion, goodness-of-fit metrics, and the
// linear-vs-quadratic model selection the paper applies per operation
// type (Section IV-B).
//
// There is one fit path and one evaluator. Select applies the selection
// rule over FitStats, which accumulates the normal equations XᵀX β = Xᵀy
// in a SuffStats and solves them (partial-pivot Gaussian elimination
// with a small ridge fallback for ill-conditioned designs, ample for the
// handful of features each operation model uses); training keeps the
// accumulator Select returns, so calibration continues the exact fit.
// PredictBatch evaluates a model over a feature matrix, and Predict is
// a one-row call to it.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the design matrix is too ill-conditioned
// to solve, even with the ridge fallback.
var ErrSingular = errors.New("regress: singular design matrix")

// Model is a fitted polynomial regression model. Predictions are
// β₀ + Σ βᵢ·φᵢ(x) where φ is the feature expansion of the given degree.
type Model struct {
	// Degree is 1 for a linear model or 2 for a quadratic model (degree-2
	// polynomial expansion including cross terms).
	Degree int
	// NumFeatures is the dimensionality of the raw feature vectors the
	// model was trained on.
	NumFeatures int
	// Coef holds the intercept at Coef[0] followed by one coefficient per
	// expanded feature.
	Coef []float64
	// R2 is the coefficient of determination on the training sample.
	R2 float64
	// N is the number of training observations.
	N int
	// scale holds per-raw-feature normalization divisors applied before
	// expansion, so that features of wildly different magnitudes (bytes
	// vs. FLOPs) condition the normal equations well.
	scale []float64
}

// Fit trains a polynomial model of the given degree on the observations
// (xs[i], ys[i]). All feature vectors must share one length; at least
// len(expanded)+1 observations are required. Fit is a thin wrapper over
// the SuffStats accumulator (see FitStats).
func Fit(xs [][]float64, ys []float64, degree int) (*Model, error) {
	m, _, err := FitStats(xs, ys, degree)
	return m, err
}

// FitStats trains like Fit and additionally returns the sufficient
// statistics the fit accumulated, so callers that keep calibrating the
// model with live observations (rank-1 Add updates followed by Solve)
// continue from the exact training-time state instead of restarting
// from scratch.
func FitStats(xs [][]float64, ys []float64, degree int) (*Model, *SuffStats, error) {
	if len(xs) != len(ys) {
		return nil, nil, fmt.Errorf("regress: %d feature rows but %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, nil, errors.New("regress: empty training set")
	}
	nf := len(xs[0])
	if nf == 0 {
		return nil, nil, errors.New("regress: zero-length feature vectors")
	}
	for i, x := range xs {
		if len(x) != nf {
			return nil, nil, fmt.Errorf("regress: row %d has %d features, want %d", i, len(x), nf)
		}
	}
	if degree != 1 && degree != 2 {
		return nil, nil, fmt.Errorf("regress: unsupported degree %d", degree)
	}

	// Normalize each raw feature by its maximum absolute value so the
	// normal equations stay well-conditioned for byte-scale features.
	scale := make([]float64, nf)
	for j := 0; j < nf; j++ {
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

	s, err := NewSuffStats(nf, degree, scale)
	if err != nil {
		return nil, nil, err
	}
	if len(xs) < s.p {
		return nil, nil, fmt.Errorf("regress: %d observations insufficient for %d parameters", len(xs), s.p)
	}
	for i, x := range xs {
		s.Add(x, ys[i])
	}

	m, err := s.Solve()
	if err != nil {
		return nil, nil, err
	}
	// Solve computes R² in moment form; on the batch path the training
	// rows are in hand, so recompute it from the residuals directly —
	// the historical definition, preserved bit for bit.
	m.R2 = rSquared(ys, m.predictAll(xs))
	return m, s, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy-free
// (destructive) system.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// Predict evaluates the model at the raw feature vector x: a one-row
// PredictBatch, the one evaluator. It panics if x has the wrong
// length; models are always applied to features produced by the same
// extractor that produced the training rows.
func (m *Model) Predict(x []float64) float64 {
	m.checkArity(x)
	var y [1]float64
	m.PredictBatch(y[:], x)
	return y[0]
}

// checkArity panics unless x has the model's feature count.
func (m *Model) checkArity(x []float64) {
	if len(x) != m.NumFeatures {
		panic(fmt.Sprintf("regress: predict with %d features on a %d-feature model", len(x), m.NumFeatures))
	}
}

// predictAll evaluates the model at every row of xs in one
// PredictBatch, so a fit's R² takes one scratch row, not one per
// training row. It panics on a row of the wrong length, like Predict.
func (m *Model) predictAll(xs [][]float64) []float64 {
	feats := make([]float64, 0, len(xs)*m.NumFeatures)
	for _, x := range xs {
		m.checkArity(x)
		feats = append(feats, x...)
	}
	out := make([]float64, len(xs))
	m.PredictBatch(out, feats)
	return out
}

// rSquared computes the coefficient of determination.
func rSquared(actual, predicted []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	mean := 0.0
	for _, y := range actual {
		mean += y
	}
	mean /= float64(len(actual))
	ssTot, ssRes := 0.0, 0.0
	for i := range actual {
		dt := actual[i] - mean
		dr := actual[i] - predicted[i]
		ssTot += dt * dt
		ssRes += dr * dr
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// RSquared evaluates the model's coefficient of determination on an
// arbitrary (e.g. held-out) sample.
func (m *Model) RSquared(xs [][]float64, ys []float64) float64 {
	return rSquared(ys, m.predictAll(xs))
}

// MAPE evaluates the mean absolute percentage error (as a fraction) of
// the model on a sample, skipping zero targets.
func (m *Model) MAPE(xs [][]float64, ys []float64) float64 {
	sum, n := 0.0, 0
	for i, x := range xs {
		if ys[i] == 0 {
			continue
		}
		sum += math.Abs(m.Predict(x)-ys[i]) / math.Abs(ys[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// selectMargin is the training-R² gain a quadratic fit must exceed to
// be chosen over the linear one.
const selectMargin = 0.01

// Select fits the model the paper's per-operation rule picks (Section
// IV-B) and returns it with the accumulator its own fit built (see
// FitStats). Degree 0 selects: the quadratic is kept only when its
// training R² beats the linear one by more than selectMargin, since
// linear regression suffices for most heavy operations while a few
// (e.g. Conv2DBackpropFilter) need the extra terms; a quadratic that
// cannot be fit leaves the linear one. Degree 1 forces linear. Degree 2
// forces quadratic, falling back to linear when the quadratic cannot
// be fit, and returns the quadratic's error when neither can.
func Select(xs [][]float64, ys []float64, degree int) (*Model, *SuffStats, error) {
	switch degree {
	case 0:
		lin, linStats, err := FitStats(xs, ys, 1)
		if err != nil {
			return nil, nil, err
		}
		quad, quadStats, err := FitStats(xs, ys, 2)
		if err == nil && quad.R2 > lin.R2+selectMargin {
			return quad, quadStats, nil
		}
		return lin, linStats, nil
	case 1:
		return FitStats(xs, ys, 1)
	case 2:
		quad, quadStats, err := FitStats(xs, ys, 2)
		if err == nil {
			return quad, quadStats, nil
		}
		lin, linStats, linErr := FitStats(xs, ys, 1)
		if linErr != nil {
			return nil, nil, err
		}
		return lin, linStats, nil
	default:
		return nil, nil, fmt.Errorf("regress: unsupported selection degree %d", degree)
	}
}

package regress

import (
	"strings"
	"sync"
	"testing"

	"ceer/internal/rng"
)

// fitRandom fits a degree-d model on synthetic noisy data with nf
// features, returning the model and a fresh matrix of query rows.
func fitRandom(t *testing.T, seed uint64, nf, degree, rows int) (*Model, [][]float64) {
	t.Helper()
	src := rng.New(seed)
	n := 40
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, nf)
		for j := range x {
			x[j] = 1 + src.Float64()*100
		}
		xs[i] = x
		y := 0.5
		for j, v := range x {
			y += float64(j+1) * 0.01 * v
			y += 1e-5 * v * v
		}
		ys[i] = y * (1 + 0.05*src.Normal())
	}
	m, err := Fit(xs, ys, degree)
	if err != nil {
		t.Fatalf("Fit(degree=%d): %v", degree, err)
	}
	queries := make([][]float64, rows)
	for i := range queries {
		q := make([]float64, nf)
		for j := range q {
			q[j] = 1 + src.Float64()*150 // include extrapolation beyond the fit range
		}
		queries[i] = q
	}
	return m, queries
}

// referencePredict evaluates m at x independently of PredictBatch:
// scale the raw features, expand them into one row in SuffStats.Add's
// order (the linear columns, then for degree 2 the squares and cross
// products xᵢ·xⱼ, i ≤ j, row-major), and sum the coefficient products
// after the intercept, left to right.
func referencePredict(m *Model, x []float64) float64 {
	scaled := make([]float64, len(x))
	for j := range x {
		scaled[j] = x[j] / m.scale[j]
	}
	row := append([]float64(nil), scaled...)
	if m.Degree == 2 {
		for i := range scaled {
			for j := i; j < len(scaled); j++ {
				row = append(row, scaled[i]*scaled[j])
			}
		}
	}
	y := m.Coef[0]
	for i, v := range row {
		y += m.Coef[i+1] * v
	}
	return y
}

// TestPredictBatchMatchesPredict pins the evaluator's arithmetic:
// PredictBatch, and Predict, its one-row form, equal the test-local
// reference evaluation bit for bit, for linear and quadratic models
// across feature arities. A change of term order changes the rounding,
// and fails here.
func TestPredictBatchMatchesPredict(t *testing.T) {
	for _, degree := range []int{1, 2} {
		for _, nf := range []int{1, 2, 3, 6} {
			m, queries := fitRandom(t, uint64(100+10*degree+nf), nf, degree, 17)
			feats := make([]float64, 0, len(queries)*nf)
			for _, q := range queries {
				feats = append(feats, q...)
			}
			dst := make([]float64, len(queries))
			m.PredictBatch(dst, feats)
			for i, q := range queries {
				want := referencePredict(m, q)
				if !eqExact(dst[i], want) {
					t.Errorf("degree=%d nf=%d row %d: PredictBatch = %v, reference = %v",
						degree, nf, i, dst[i], want)
				}
				if got := m.Predict(q); !eqExact(got, want) {
					t.Errorf("degree=%d nf=%d row %d: Predict = %v, reference = %v",
						degree, nf, i, got, want)
				}
			}
		}
	}
}

// TestPredictAllocFree checks that Predict keeps its scratch row on the
// stack up to 16 features: a 6-feature quadratic model, the widest the
// zoo trains, allocates nothing per call. Past 16 features the row
// comes from the heap and the result still equals the reference.
func TestPredictAllocFree(t *testing.T) {
	m, queries := fitRandom(t, 61, 6, 2, 1)
	if allocs := testing.AllocsPerRun(100, func() { m.Predict(queries[0]) }); allocs != 0 {
		t.Errorf("Predict on a 6-feature quadratic model: %v allocs per call, want 0", allocs)
	}
	wide, queries := fitRandom(t, 62, 17, 1, 3)
	for i, q := range queries {
		if got, want := wide.Predict(q), referencePredict(wide, q); !eqExact(got, want) {
			t.Errorf("17 features, row %d: Predict = %v, reference = %v", i, got, want)
		}
	}
}

// TestPredictBatchEmpty accepts a zero-row batch.
func TestPredictBatchEmpty(t *testing.T) {
	m, _ := fitRandom(t, 3, 2, 1, 1)
	m.PredictBatch(nil, nil) // must not panic
}

// TestPredictBatchSingleRow pins the one-row degenerate case against
// the reference, for both degrees.
func TestPredictBatchSingleRow(t *testing.T) {
	for _, degree := range []int{1, 2} {
		m, queries := fitRandom(t, uint64(40+degree), 3, degree, 1)
		dst := make([]float64, 1)
		m.PredictBatch(dst, queries[0])
		if want := referencePredict(m, queries[0]); !eqExact(dst[0], want) {
			t.Errorf("degree=%d: single-row PredictBatch = %v, reference = %v", degree, dst[0], want)
		}
	}
}

// TestPredictBatchShapePanic pins the shape contract: a feature matrix
// that does not factor into len(dst) rows panics, like Predict does on
// arity mismatch.
func TestPredictBatchShapePanic(t *testing.T) {
	m, _ := fitRandom(t, 4, 2, 1, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PredictBatch accepted a mis-shaped matrix")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "PredictBatch") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	m.PredictBatch(make([]float64, 3), make([]float64, 5))
}

// TestPredictBatchWidthMismatch pins the other mis-shape direction: an
// empty destination with leftover features is a contract violation, not
// a silent no-op.
func TestPredictBatchWidthMismatch(t *testing.T) {
	m, _ := fitRandom(t, 5, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("PredictBatch accepted features with no destination rows")
		}
	}()
	m.PredictBatch(nil, make([]float64, 2))
}

// TestPredictBatchConcurrentBitIdentity hammers one shared model from
// many goroutines, each comparing PredictBatch against the per-row
// reference bit for bit. Under -race this additionally pins
// that batch evaluation of a shared (immutable) model is data-race
// free — the property the compiled-table hot-swap path relies on.
func TestPredictBatchConcurrentBitIdentity(t *testing.T) {
	for _, nf := range []int{1, 3} {
		m, queries := fitRandom(t, uint64(60+nf), nf, 2, 32)
		feats := make([]float64, 0, len(queries)*nf)
		for _, q := range queries {
			feats = append(feats, q...)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, len(queries))
				for iter := 0; iter < 50; iter++ {
					m.PredictBatch(dst, feats)
					for i, q := range queries {
						if !eqExact(dst[i], referencePredict(m, q)) {
							select {
							case errs <- "concurrent PredictBatch diverged from the reference":
							default:
							}
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Errorf("nf=%d: %s", nf, msg)
		}
	}
}

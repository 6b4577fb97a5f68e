package regress

import "fmt"

// PredictBatch is the model's one evaluator. It evaluates the model
// over a struct-of-arrays feature matrix: feats holds len(dst) rows of
// NumFeatures raw features each, stored contiguously row-major, and the
// i-th prediction is written to dst[i]. Predict is a one-row call; the
// compiled tables evaluate one model over a whole run of classes. One
// scratch row of scaled features serves the whole batch; up to 16
// features it lives on the stack, so Predict allocates nothing.
//
// Each row is normalized by the training scale, and β₀ + Σ βᵢ·φᵢ(x) is
// summed in the order SuffStats.Add expands a row: the linear columns,
// then (degree 2) the squares and cross products xᵢ·xⱼ, i ≤ j,
// row-major. The terms are formed inline, without building an expanded
// row per evaluation. It panics on a shape mismatch.
func (m *Model) PredictBatch(dst []float64, feats []float64) {
	nf := m.NumFeatures
	if len(feats) != len(dst)*nf {
		panic(fmt.Sprintf("regress: PredictBatch with %d features for %d rows of a %d-feature model",
			len(feats), len(dst), nf))
	}
	var buf [16]float64
	var scaled []float64
	if nf <= len(buf) {
		scaled = buf[:nf]
	} else {
		scaled = make([]float64, nf)
	}
	for r := range dst {
		row := feats[r*nf : (r+1)*nf]
		for j, v := range row {
			scaled[j] = v / m.scale[j]
		}
		y := m.Coef[0]
		ci := 1
		for _, s := range scaled {
			y += m.Coef[ci] * s
			ci++
		}
		if m.Degree >= 2 {
			for i := 0; i < nf; i++ {
				for j := i; j < nf; j++ {
					y += m.Coef[ci] * (scaled[i] * scaled[j])
					ci++
				}
			}
		}
		dst[r] = y
	}
}

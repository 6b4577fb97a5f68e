// Checkpoint-grade sufficient-statistics serialization, mirroring the
// trace accumulator codec: the state codec round-trips the exact
// internal accumulator state — normal-equation sums, target moments,
// the residual window with its eviction history — so an accumulator
// restored from a saved predictor continues bit-identically to one
// that never stopped. JSON numbers use Go's shortest-round-trip float
// encoding, so no precision is lost.

package regress

import (
	"fmt"
	"math"
)

// SuffStatsState is the exact exported state of a SuffStats. The
// residual window is normalized oldest-first so two accumulators that
// hold the same residuals encode identically regardless of ring
// position.
type SuffStatsState struct {
	Degree      int       `json:"degree"`
	NumFeatures int       `json:"num_features"`
	Scale       []float64 `json:"scale"`
	N           int       `json:"n"`
	XTX         []float64 `json:"xtx"` // upper triangle, row-major
	XTY         []float64 `json:"xty"`
	SumY        float64   `json:"sum_y"`
	SumY2       float64   `json:"sum_y2"`
	ResCap      int       `json:"res_cap,omitempty"`
	Residuals   []float64 `json:"residuals,omitempty"` // oldest first
	ResTotal    int       `json:"res_total,omitempty"`
}

// State exports the accumulator's internal state.
func (s *SuffStats) State() SuffStatsState {
	return SuffStatsState{
		Degree:      s.degree,
		NumFeatures: s.nf,
		Scale:       append([]float64(nil), s.scale...),
		N:           s.n,
		XTX:         append([]float64(nil), s.xtx...),
		XTY:         append([]float64(nil), s.xty...),
		SumY:        s.sumY,
		SumY2:       s.sumY2,
		ResCap:      s.resCap,
		Residuals:   s.windowInOrder(),
		ResTotal:    s.resTotal,
	}
}

// RestoreSuffStats inverts State exactly, validating shape invariants.
func RestoreSuffStats(st SuffStatsState) (*SuffStats, error) {
	s, err := NewSuffStats(st.NumFeatures, st.Degree, st.Scale)
	if err != nil {
		return nil, err
	}
	if want := s.p * (s.p + 1) / 2; len(st.XTX) != want {
		return nil, fmt.Errorf("regress: suffstats state has %d xtx entries, want %d", len(st.XTX), want)
	}
	if len(st.XTY) != s.p {
		return nil, fmt.Errorf("regress: suffstats state has %d xty entries, want %d", len(st.XTY), s.p)
	}
	if st.N < 0 {
		return nil, fmt.Errorf("regress: suffstats state has negative n %d", st.N)
	}
	if st.ResCap < 0 {
		return nil, fmt.Errorf("regress: suffstats state has negative residual cap %d", st.ResCap)
	}
	if len(st.Residuals) > st.ResCap {
		return nil, fmt.Errorf("regress: suffstats state holds %d residuals over cap %d", len(st.Residuals), st.ResCap)
	}
	if st.ResTotal < len(st.Residuals) {
		return nil, fmt.Errorf("regress: suffstats state counts %d residuals but holds %d", st.ResTotal, len(st.Residuals))
	}
	for i, v := range st.XTX {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("regress: suffstats state has non-finite xtx entry %d", i)
		}
	}
	copy(s.xtx, st.XTX)
	copy(s.xty, st.XTY)
	s.n = st.N
	s.sumY = st.SumY
	s.sumY2 = st.SumY2
	s.resCap = st.ResCap
	s.res = append([]float64(nil), st.Residuals...)
	if st.ResCap > 0 {
		s.resNext = len(s.res) % st.ResCap
	}
	s.resTotal = st.ResTotal
	return s, nil
}

// Checkpoint-grade sufficient-statistics serialization, mirroring the
// trace accumulator codec: the state codec round-trips the exact
// internal accumulator state — normal-equation sums and target
// moments — so an accumulator restored from a saved predictor
// continues bit-identically to one that never stopped. JSON numbers
// use Go's shortest-round-trip float encoding, so no precision is
// lost.

package regress

import (
	"fmt"
	"math"
)

// SuffStatsState is the exact exported state of a SuffStats.
type SuffStatsState struct {
	Degree      int       `json:"degree"`
	NumFeatures int       `json:"num_features"`
	Scale       []float64 `json:"scale"`
	N           int       `json:"n"`
	XTX         []float64 `json:"xtx"` // upper triangle, row-major
	XTY         []float64 `json:"xty"`
	SumY        float64   `json:"sum_y"`
	SumY2       float64   `json:"sum_y2"`
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
	}
}

// RestoreSuffStats inverts State exactly, validating shape invariants.
// The declared shape is checked against the arrays the state holds
// before anything is allocated for it, so a small corrupt state cannot
// make it allocate a huge XᵀX.
func RestoreSuffStats(st SuffStatsState) (*SuffStats, error) {
	p, err := numParams(st.NumFeatures, st.Degree, st.Scale)
	if err != nil {
		return nil, err
	}
	if len(st.XTY) != p {
		return nil, fmt.Errorf("regress: suffstats state has %d xty entries, want %d", len(st.XTY), p)
	}
	if want := p * (p + 1) / 2; len(st.XTX) != want {
		return nil, fmt.Errorf("regress: suffstats state has %d xtx entries, want %d", len(st.XTX), want)
	}
	if st.N < 0 {
		return nil, fmt.Errorf("regress: suffstats state has negative n %d", st.N)
	}
	if err := checkFiniteXTX(st.XTX); err != nil {
		return nil, err
	}
	s := newSuffStats(st.NumFeatures, st.Degree, st.Scale, p)
	copy(s.xtx, st.XTX)
	copy(s.xty, st.XTY)
	s.n = st.N
	s.sumY = st.SumY
	s.sumY2 = st.SumY2
	return s, nil
}

// Clone returns an independent copy of the accumulator: later Adds to
// either leave the other unchanged. It equals the State and
// RestoreSuffStats round trip, in one copy, and like that round trip
// it refuses an accumulator whose XᵀX has overflowed to a non-finite
// entry, with the same error.
func (s *SuffStats) Clone() (*SuffStats, error) {
	if err := checkFiniteXTX(s.xtx); err != nil {
		return nil, err
	}
	c := newSuffStats(s.nf, s.degree, s.scale, s.p)
	copy(c.xtx, s.xtx)
	copy(c.xty, s.xty)
	c.n, c.sumY, c.sumY2 = s.n, s.sumY, s.sumY2
	return c, nil
}

// checkFiniteXTX refuses a non-finite XᵀX entry, which no solve can
// recover from.
func checkFiniteXTX(xtx []float64) error {
	for i, v := range xtx {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("regress: suffstats state has non-finite xtx entry %d", i)
		}
	}
	return nil
}

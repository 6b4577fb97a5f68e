// Package drift decides, deterministically, whether a fitted model
// still describes the observations streaming past it. Each model's
// live residuals go into a Window; Evaluate reads the window's MAPE
// and its longest same-sign residual run and compares them against
// fixed thresholds. Two complementary signals: MAPE catches models
// that became loudly wrong (a 2× device slowdown blows straight
// through any reasonable threshold), while the sign-run statistic
// catches quiet systematic bias (a model consistently 8% low has a
// modest MAPE but residuals that never change sign, which i.i.d.
// noise makes exponentially unlikely).
//
// Everything here is a pure function of the window and the policy —
// no clocks, no randomness — so a replayed observation log produces
// the identical sequence of verdicts every time.
package drift

import (
	"fmt"
	"math"
)

// Policy fixes the drift thresholds. The zero value is not usable;
// start from DefaultPolicy.
type Policy struct {
	// Window is the residual window size drift is judged over. A
	// verdict needs a full window; until then Drifted is always false
	// (cold models must not thrash).
	Window int
	// MAPEThreshold flags drift when the windowed mean absolute
	// relative residual exceeds it (fraction, e.g. 0.25 = 25%).
	MAPEThreshold float64
	// SignRun flags drift when at least this many consecutive window
	// residuals share a sign.
	SignRun int
}

// DefaultPolicy returns the standard thresholds: judged over 24
// observations, flagged at 25% windowed MAPE — comfortably above the
// paper's per-op fit errors, far below a real slowdown — or 12
// same-signed residuals in a row (p ≈ 2⁻¹¹ under symmetric noise).
func DefaultPolicy() Policy {
	return Policy{Window: 24, MAPEThreshold: 0.25, SignRun: 12}
}

// Validate rejects unusable policies.
func (p Policy) Validate() error {
	if p.Window <= 0 {
		return fmt.Errorf("drift: policy window %d must be positive", p.Window)
	}
	if !(p.MAPEThreshold > 0) {
		return fmt.Errorf("drift: policy MAPE threshold %v must be positive", p.MAPEThreshold)
	}
	if p.SignRun <= 1 {
		return fmt.Errorf("drift: policy sign run %d must exceed 1", p.SignRun)
	}
	if p.SignRun > p.Window {
		return fmt.Errorf("drift: policy sign run %d exceeds window %d", p.SignRun, p.Window)
	}
	return nil
}

// Verdict is the outcome of one drift evaluation.
type Verdict struct {
	// WindowFill is how many residuals the window held.
	WindowFill int `json:"window_fill"`
	// MAPE is the windowed mean absolute relative residual.
	MAPE float64 `json:"mape"`
	// MaxSignRun is the longest same-sign residual run in the window.
	MaxSignRun int `json:"max_sign_run"`
	// Drifted reports whether either statistic crossed its threshold
	// over a full window.
	Drifted bool `json:"drifted"`
	// Reason names the tripped statistic ("mape", "sign-run", or both
	// as "mape+sign-run"); empty when not drifted.
	Reason string `json:"reason,omitempty"`
}

// Window is one model's residual window: the signed relative
// residuals (predicted − actual)/|actual| of its latest observations,
// a ring of at most its size that evicts the oldest. Storage grows by
// append up to the size, so a large window allocates nothing up front.
type Window struct {
	size int
	res  []float64 // ring storage, len <= size
	next int       // oldest entry once the ring is full, else 0
}

// NewWindow returns an empty window of the given size, which must be
// positive (a validated Policy's Window).
func NewWindow(size int) Window { return Window{size: size} }

// Add records the residual of one prediction against its observed
// value. An observation with a zero actual is skipped: its relative
// error is undefined.
func (w *Window) Add(pred, actual float64) {
	if actual == 0 {
		return
	}
	rel := (pred - actual) / math.Abs(actual)
	if len(w.res) < w.size {
		w.res = append(w.res, rel)
		return
	}
	w.res[w.next] = rel
	w.next = (w.next + 1) % w.size
}

// Reset empties the window, keeping its storage — called after a
// refit so the new model is judged only on residuals it produced.
func (w *Window) Reset() {
	w.res = w.res[:0]
	w.next = 0
}

// Evaluate judges a residual window against the policy. The window
// must have been made with the policy's Window as its size. Its
// statistics come from one oldest-first walk of the ring in place, so
// a verdict allocates nothing and the MAPE sum has a fixed order.
func Evaluate(p Policy, w *Window) Verdict {
	v := Verdict{WindowFill: len(w.res)}
	sum, run, sign := 0.0, 0, 0
	for _, half := range [2][]float64{w.res[w.next:], w.res[:w.next]} {
		for _, r := range half {
			sum += math.Abs(r)
			switch {
			case r > 0 && sign > 0, r < 0 && sign < 0:
				run++
			case r > 0:
				sign, run = 1, 1
			case r < 0:
				sign, run = -1, 1
			default: // exact zeros (and NaNs) break a run
				sign, run = 0, 0
			}
			v.MaxSignRun = max(v.MaxSignRun, run)
		}
	}
	if v.WindowFill > 0 {
		v.MAPE = sum / float64(v.WindowFill)
	}
	if v.WindowFill < p.Window {
		return v
	}
	mape := v.MAPE > p.MAPEThreshold
	biased := v.MaxSignRun >= p.SignRun
	switch {
	case mape && biased:
		v.Drifted, v.Reason = true, "mape+sign-run"
	case mape:
		v.Drifted, v.Reason = true, "mape"
	case biased:
		v.Drifted, v.Reason = true, "sign-run"
	}
	return v
}

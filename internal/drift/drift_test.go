package drift

import (
	"math"
	"strings"
	"testing"

	"ceer/internal/rng"
)

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	cases := []struct {
		name string
		p    Policy
		want string
	}{
		{"zero window", Policy{Window: 0, MAPEThreshold: 0.2, SignRun: 4}, "window"},
		{"zero mape", Policy{Window: 8, MAPEThreshold: 0, SignRun: 4}, "MAPE threshold"},
		{"nan mape", Policy{Window: 8, MAPEThreshold: math.NaN(), SignRun: 4}, "MAPE threshold"},
		{"unit sign run", Policy{Window: 8, MAPEThreshold: 0.2, SignRun: 1}, "exceed 1"},
		{"run over window", Policy{Window: 8, MAPEThreshold: 0.2, SignRun: 9}, "exceeds window"},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestEvaluateColdWindow pins that a partially filled window never
// drifts, no matter how bad the residuals look.
func TestEvaluateColdWindow(t *testing.T) {
	p := Policy{Window: 8, MAPEThreshold: 0.1, SignRun: 3}
	w := NewWindow(p.Window)
	for i := 0; i < p.Window-1; i++ {
		w.Add(3.0, 1.0) // +200% residual, every time
	}
	v := Evaluate(p, &w)
	if v.Drifted {
		t.Errorf("cold window drifted: %+v", v)
	}
	if v.WindowFill != p.Window-1 {
		t.Errorf("WindowFill = %d, want %d", v.WindowFill, p.Window-1)
	}
}

// TestEvaluateMAPE trips the loud-error statistic: residuals that
// alternate sign (no run) but are huge.
func TestEvaluateMAPE(t *testing.T) {
	p := Policy{Window: 8, MAPEThreshold: 0.25, SignRun: 5}
	w := NewWindow(p.Window)
	for i := 0; i < p.Window; i++ {
		if i%2 == 0 {
			w.Add(2.0, 1.0) // +100%
		} else {
			w.Add(0.5, 1.0) // -50%
		}
	}
	v := Evaluate(p, &w)
	if !v.Drifted || v.Reason != "mape" {
		t.Errorf("Evaluate = %+v, want drifted via mape", v)
	}
}

// TestEvaluateSignRun trips the quiet-bias statistic: residuals small
// in magnitude but all one-sided.
func TestEvaluateSignRun(t *testing.T) {
	p := Policy{Window: 8, MAPEThreshold: 0.25, SignRun: 6}
	w := NewWindow(p.Window)
	for i := 0; i < p.Window; i++ {
		w.Add(1.05, 1.0) // +5%, consistently
	}
	v := Evaluate(p, &w)
	if !v.Drifted || v.Reason != "sign-run" {
		t.Errorf("Evaluate = %+v, want drifted via sign-run", v)
	}
	if v.MaxSignRun != p.Window {
		t.Errorf("MaxSignRun = %d, want %d", v.MaxSignRun, p.Window)
	}
}

// TestEvaluateBoth reports the combined reason when both statistics
// trip at once.
func TestEvaluateBoth(t *testing.T) {
	p := Policy{Window: 4, MAPEThreshold: 0.25, SignRun: 4}
	w := NewWindow(p.Window)
	for i := 0; i < p.Window; i++ {
		w.Add(2.0, 1.0)
	}
	v := Evaluate(p, &w)
	if !v.Drifted || v.Reason != "mape+sign-run" {
		t.Errorf("Evaluate = %+v, want drifted via mape+sign-run", v)
	}
}

// TestEvaluateHealthy stays quiet on alternating small residuals.
func TestEvaluateHealthy(t *testing.T) {
	p := Policy{Window: 8, MAPEThreshold: 0.25, SignRun: 4}
	w := NewWindow(p.Window)
	for i := 0; i < 3*p.Window; i++ {
		if i%2 == 0 {
			w.Add(1.02, 1.0)
		} else {
			w.Add(0.97, 1.0)
		}
	}
	v := Evaluate(p, &w)
	if v.Drifted || v.Reason != "" {
		t.Errorf("healthy residuals drifted: %+v", v)
	}
}

// TestEvaluateDeterministic pins that evaluation is a pure function of
// the window: same residuals, same verdict, every time.
func TestEvaluateDeterministic(t *testing.T) {
	p := DefaultPolicy()
	build := func() *Window {
		w := NewWindow(p.Window)
		for i := 0; i < 2*p.Window; i++ {
			w.Add(1.0+float64(i%7)*0.1, 1.0)
		}
		return &w
	}
	a, b := Evaluate(p, build()), Evaluate(p, build())
	if a != b {
		t.Errorf("verdicts diverge: %+v vs %+v", a, b)
	}
}

// TestEvaluateAllocFree: on a full, wrapped window, recording a
// residual overwrites the ring in place and a verdict reads it in
// place, so judging an observation allocates nothing.
func TestEvaluateAllocFree(t *testing.T) {
	p := DefaultPolicy()
	w := NewWindow(p.Window)
	for i := 0; i < p.Window+13; i++ {
		w.Add(1+0.3*float64(i%5-2), 1)
	}
	var v Verdict
	if n := testing.AllocsPerRun(100, func() { w.Add(1.1, 1) }); n != 0 {
		t.Errorf("Add on a full window allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { v = Evaluate(p, &w) }); n != 0 {
		t.Errorf("Evaluate allocates %v per call, want 0", n)
	}
	if v.WindowFill != p.Window {
		t.Errorf("window fill %d, want %d", v.WindowFill, p.Window)
	}
}

// approx compares statistics of hand-picked residuals, whose decimal
// values are not exact in binary.
func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-15 }

// TestWindowEvictSkipReset walks one small window through eviction,
// a zero actual and a Reset.
func TestWindowEvictSkipReset(t *testing.T) {
	p := Policy{Window: 4, MAPEThreshold: 0.25, SignRun: 4}
	w := NewWindow(p.Window)
	// Residuals: +0.1, -0.1, +0.2, +0.2 → MAPE 0.15, max sign run 2.
	w.Add(1.1, 1.0)
	w.Add(0.9, 1.0)
	w.Add(1.2, 1.0)
	w.Add(1.2, 1.0)
	full := Evaluate(p, &w)
	if full.WindowFill != 4 || !approx(full.MAPE, 0.15) || full.MaxSignRun != 2 {
		t.Errorf("full window: %+v, want fill 4, MAPE 0.15, sign run 2", full)
	}
	// A zero actual is skipped: it neither evicts nor changes a
	// statistic.
	w.Add(5, 0)
	if v := Evaluate(p, &w); v != full {
		t.Errorf("after a zero actual: %+v, want %+v", v, full)
	}
	// A fifth residual evicts the oldest (+0.1), leaving -0.1, +0.2,
	// +0.2, +0.3 → max sign run 3.
	w.Add(1.3, 1.0)
	if v := Evaluate(p, &w); v.WindowFill != 4 || v.MaxSignRun != 3 || !approx(v.MAPE, 0.2) {
		t.Errorf("after eviction: %+v, want fill 4, MAPE 0.2, sign run 3", v)
	}
	w.Reset()
	if v := Evaluate(p, &w); v != (Verdict{}) {
		t.Errorf("after Reset: %+v, want the zero verdict", v)
	}
	w.Add(0.5, 1.0)
	if v := Evaluate(p, &w); v.WindowFill != 1 || !approx(v.MAPE, 0.5) || v.MaxSignRun != 1 {
		t.Errorf("first residual after Reset: %+v, want fill 1, MAPE 0.5, sign run 1", v)
	}
}

// TestWindowMatchesReference: across random sizes, fills, wrap points
// and Resets, a verdict's fill, MAPE (compared by bits) and longest
// sign run equal a reference computed over a plain slice of the last
// size residuals added, oldest first.
func TestWindowMatchesReference(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 2000; trial++ {
		size := 1 + src.Intn(40)
		w := NewWindow(size)
		var added []float64
		sign := 1.0
		for n := src.Intn(160); n > 0; n-- {
			if src.Intn(50) == 0 {
				w.Reset()
				added = added[:0]
				continue
			}
			if src.Intn(3) == 0 {
				sign = -sign
			}
			pred := 1 + sign*(0.01+src.Float64())
			if src.Intn(10) == 0 {
				pred = 1 // an exact zero breaks a run
			}
			w.Add(pred, 1)
			added = append(added, pred-1)
		}
		win := added[max(0, len(added)-size):]
		wantMAPE := 0.0
		if len(win) > 0 {
			for _, r := range win {
				wantMAPE += math.Abs(r)
			}
			wantMAPE /= float64(len(win))
		}
		wantRun, run := 0, 0
		for i, r := range win {
			switch {
			case r == 0:
				run = 0
			case i > 0 && (r > 0) == (win[i-1] > 0) && win[i-1] != 0:
				run++
			default:
				run = 1
			}
			wantRun = max(wantRun, run)
		}
		v := Evaluate(Policy{Window: size, MAPEThreshold: 0.25, SignRun: 2}, &w)
		if v.WindowFill != len(win) {
			t.Fatalf("trial %d (size %d): fill %d, want %d", trial, size, v.WindowFill, len(win))
		}
		if math.Float64bits(v.MAPE) != math.Float64bits(wantMAPE) {
			t.Fatalf("trial %d (size %d, %d held): MAPE %v, want %v", trial, size, len(win), v.MAPE, wantMAPE)
		}
		if v.MaxSignRun != wantRun {
			t.Fatalf("trial %d (size %d, window %v): sign run %d, want %d", trial, size, win, v.MaxSignRun, wantRun)
		}
	}
}

package drift

import (
	"strings"
	"testing"

	"ceer/internal/regress"
)

func newStats(t *testing.T, window int) *regress.SuffStats {
	t.Helper()
	s, err := regress.NewSuffStats(1, 1, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetResidualWindowCap(window)
	return s
}

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
	s := newStats(t, p.Window)
	for i := 0; i < p.Window-1; i++ {
		s.AddResidual(3.0, 1.0) // +200% residual, every time
	}
	v := Evaluate(p, s)
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
	s := newStats(t, p.Window)
	for i := 0; i < p.Window; i++ {
		if i%2 == 0 {
			s.AddResidual(2.0, 1.0) // +100%
		} else {
			s.AddResidual(0.5, 1.0) // -50%
		}
	}
	v := Evaluate(p, s)
	if !v.Drifted || v.Reason != "mape" {
		t.Errorf("Evaluate = %+v, want drifted via mape", v)
	}
}

// TestEvaluateSignRun trips the quiet-bias statistic: residuals small
// in magnitude but all one-sided.
func TestEvaluateSignRun(t *testing.T) {
	p := Policy{Window: 8, MAPEThreshold: 0.25, SignRun: 6}
	s := newStats(t, p.Window)
	for i := 0; i < p.Window; i++ {
		s.AddResidual(1.05, 1.0) // +5%, consistently
	}
	v := Evaluate(p, s)
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
	s := newStats(t, p.Window)
	for i := 0; i < p.Window; i++ {
		s.AddResidual(2.0, 1.0)
	}
	v := Evaluate(p, s)
	if !v.Drifted || v.Reason != "mape+sign-run" {
		t.Errorf("Evaluate = %+v, want drifted via mape+sign-run", v)
	}
}

// TestEvaluateHealthy stays quiet on alternating small residuals.
func TestEvaluateHealthy(t *testing.T) {
	p := Policy{Window: 8, MAPEThreshold: 0.25, SignRun: 4}
	s := newStats(t, p.Window)
	for i := 0; i < 3*p.Window; i++ {
		if i%2 == 0 {
			s.AddResidual(1.02, 1.0)
		} else {
			s.AddResidual(0.97, 1.0)
		}
	}
	v := Evaluate(p, s)
	if v.Drifted || v.Reason != "" {
		t.Errorf("healthy residuals drifted: %+v", v)
	}
}

// TestEvaluateDeterministic pins that evaluation is a pure function of
// the accumulator state: same residuals, same verdict, every time.
func TestEvaluateDeterministic(t *testing.T) {
	p := DefaultPolicy()
	build := func() *regress.SuffStats {
		s := newStats(t, p.Window)
		for i := 0; i < 2*p.Window; i++ {
			s.AddResidual(1.0+float64(i%7)*0.1, 1.0)
		}
		return s
	}
	a, b := Evaluate(p, build()), Evaluate(p, build())
	if a != b {
		t.Errorf("verdicts diverge: %+v vs %+v", a, b)
	}
}

// TestEvaluateAllocFree: a verdict over a full, wrapped window reads
// the residual ring in place, so judging an observation allocates
// nothing.
func TestEvaluateAllocFree(t *testing.T) {
	p := DefaultPolicy()
	s := newStats(t, p.Window)
	for i := 0; i < p.Window+13; i++ {
		s.AddResidual(1+0.3*float64(i%5-2), 1)
	}
	var v Verdict
	if n := testing.AllocsPerRun(100, func() { v = Evaluate(p, s) }); n != 0 {
		t.Errorf("Evaluate allocates %v per call, want 0", n)
	}
	if v.WindowFill != p.Window {
		t.Errorf("window fill %d, want %d", v.WindowFill, p.Window)
	}
}

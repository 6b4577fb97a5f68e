package retry

import (
	"context"
	"errors"
	"testing"
	"time"

	"ceer/internal/faults"
)

// noSleep is the test policy base: real backoff delays with no real
// sleeping.
func noSleep(p Policy) Policy {
	p.Sleep = func(time.Duration) {}
	return p
}

func TestDoSucceedsFirstAttempt(t *testing.T) {
	p := noSleep(Policy{MaxAttempts: 3, Classify: FaultErrors})
	calls := 0
	err := p.Do(context.Background(), "cell", 1, func(attempt int) error {
		calls++
		if attempt != 1 {
			t.Errorf("attempt = %d, want 1", attempt)
		}
		return nil
	})
	if err != nil || calls != 1 {
		t.Errorf("err = %v, calls = %d", err, calls)
	}
}

func TestDoRetriesTransient(t *testing.T) {
	p := noSleep(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Classify: FaultErrors})
	var attempts []int
	err := p.Do(context.Background(), "cell", 1, func(attempt int) error {
		attempts = append(attempts, attempt)
		if attempt < 3 {
			return faults.Transientf("hiccup %d", attempt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 3 || attempts[0] != 1 || attempts[2] != 3 {
		t.Errorf("attempts = %v, want [1 2 3]", attempts)
	}
}

func TestDoBudgetExhausted(t *testing.T) {
	p := noSleep(Policy{MaxAttempts: 2, Classify: FaultErrors})
	calls := 0
	err := p.Do(context.Background(), "cell", 1, func(int) error {
		calls++
		return faults.Transientf("always")
	})
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
	if !faults.IsTransient(err) {
		t.Error("the final task error must remain reachable through the wrap")
	}
}

func TestDoZeroRunWhenBudgetPreConsumed(t *testing.T) {
	// A checkpointed task that already consumed its whole budget must
	// not run at all.
	p := noSleep(Policy{MaxAttempts: 3, Classify: FaultErrors})
	calls := 0
	err := p.Do(context.Background(), "cell", 4, func(int) error {
		calls++
		return nil
	})
	if calls != 0 {
		t.Errorf("fn ran %d times; a pre-exhausted budget must not run it", calls)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestDoResumedAttemptNumbering(t *testing.T) {
	p := noSleep(Policy{MaxAttempts: 5, Classify: FaultErrors})
	var attempts []int
	err := p.Do(context.Background(), "cell", 3, func(attempt int) error {
		attempts = append(attempts, attempt)
		if attempt < 4 {
			return faults.Transientf("hiccup")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 || attempts[0] != 3 || attempts[1] != 4 {
		t.Errorf("attempts = %v, want [3 4]", attempts)
	}
}

func TestDoPermanentFailsImmediately(t *testing.T) {
	p := noSleep(Policy{MaxAttempts: 5, Classify: FaultErrors})
	calls := 0
	err := p.Do(context.Background(), "cell", 1, func(int) error {
		calls++
		return faults.Permanentf("broken device")
	})
	if calls != 1 {
		t.Errorf("permanent fault retried %d times; retrying cannot help", calls-1)
	}
	if !faults.IsPermanent(err) {
		t.Errorf("err = %v, want the permanent fault back", err)
	}
}

func TestDoNilClassifierNeverRetries(t *testing.T) {
	p := noSleep(Policy{MaxAttempts: 5})
	calls := 0
	err := p.Do(context.Background(), "cell", 1, func(int) error {
		calls++
		return faults.Transientf("hiccup")
	})
	if calls != 1 || err == nil {
		t.Errorf("nil classifier must fail on first error: calls=%d err=%v", calls, err)
	}
}

func TestDoHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := noSleep(Policy{MaxAttempts: 3, Classify: FaultErrors})
	calls := 0
	err := p.Do(ctx, "cell", 1, func(int) error { calls++; return nil })
	if calls != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: calls=%d err=%v", calls, err)
	}
}

func TestFaultErrorsClassifier(t *testing.T) {
	cases := []struct {
		err  error
		want Decision
	}{
		{faults.Transientf("x"), Retry},
		{faults.Permanentf("x"), Fail},
		{faults.Preemptedf("x"), Abort},
		{errors.New("plain"), Fail},
	}
	for _, c := range cases {
		if got := FaultErrors(c.err); got != c.want {
			t.Errorf("FaultErrors(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDelayDeterministicAndBounded(t *testing.T) {
	p := Policy{
		MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		JitterFrac: 0.25, Seed: 42,
	}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := p.Delay("profile/vgg-11/t4", attempt)
		d2 := p.Delay("profile/vgg-11/t4", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		// Nominal delay is base*2^(attempt-1) clamped at MaxDelay;
		// jitter spreads ±25% around it.
		nominal := float64(10*time.Millisecond) * float64(int(1)<<(attempt-1))
		if nominal > float64(80*time.Millisecond) {
			nominal = float64(80 * time.Millisecond)
		}
		lo, hi := time.Duration(0.74*nominal), time.Duration(1.26*nominal)
		if d1 < lo || d1 > hi {
			t.Errorf("attempt %d: delay %v outside jitter bounds [%v, %v]", attempt, d1, lo, hi)
		}
	}
	// Different keys draw from independent jitter streams.
	if p.Delay("key-a", 1) == p.Delay("key-b", 1) {
		t.Error("distinct keys should (generically) jitter differently")
	}
	// No base delay means no sleeping at all.
	zero := Policy{MaxAttempts: 3, JitterFrac: 0.25}
	if d := zero.Delay("k", 2); d != 0 {
		t.Errorf("zero BaseDelay should yield zero delay, got %v", d)
	}
}

// Package retry adds deterministic retry-with-backoff to the
// measurement campaign. Delays grow exponentially per attempt with
// seeded jitter: the jitter stream is derived from (Policy.Seed, task
// key, attempt), never from a shared source, so a retried campaign is
// byte-identical at any worker count — the repo's reproducibility
// contract extends through its failure handling.
package retry

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"ceer/internal/faults"
	"ceer/internal/rng"
)

// Decision is what a Classifier tells the retry loop to do with a task
// error.
type Decision int

const (
	// Fail stops retrying and records the error against the task.
	Fail Decision = iota
	// Retry backs off and tries the task again (budget permitting).
	Retry
	// Abort stops the whole run, not just this task (preemption).
	Abort
)

// Classifier maps a task error to a Decision. A nil Classifier fails
// every error (no retries).
type Classifier func(error) Decision

// FaultErrors is the standard campaign classifier over the
// internal/faults taxonomy: transient faults retry, preemptions abort,
// and everything else — permanent faults included — fails the task.
func FaultErrors(err error) Decision {
	switch {
	case faults.IsPreempted(err):
		return Abort
	case faults.IsTransient(err):
		return Retry
	default:
		return Fail
	}
}

// Policy configures the retry loop. The zero value allows exactly one
// attempt with no delays — retrying is strictly opt-in. The campaign
// drives Do per cell from its own par.MapPartial callback, and sleeps
// injected straggler latency through Wait, so a test's Sleep replaces
// every wait the campaign makes.
type Policy struct {
	// MaxAttempts is the total attempt budget per task, first attempt
	// included. Values <= 0 mean 1 (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each later
	// delay doubles, clamped at MaxDelay. A non-positive BaseDelay
	// disables sleeping entirely.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay (0 = uncapped).
	MaxDelay time.Duration
	// JitterFrac spreads each delay uniformly over ±JitterFrac of its
	// nominal value, from a stream seeded by (Seed, task key, attempt).
	JitterFrac float64
	// Seed drives the jitter streams.
	Seed uint64
	// Classify decides Fail/Retry/Abort per error; nil fails
	// everything.
	Classify Classifier
	// Sleep replaces the timer in Wait (tests inject a no-op or a
	// recorder). An injected Sleep is not interrupted by ctx; the
	// default waits on a timer and honors cancellation.
	Sleep func(time.Duration)
}

// Attempts returns the normalized attempt budget.
func (p Policy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// ErrBudgetExhausted wraps a task's final error when its attempt
// budget ran out on a retryable failure.
var ErrBudgetExhausted = errors.New("retry: attempt budget exhausted")

// hashString seeds the per-task jitter stream from its key.
func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv Write never fails
	return h.Sum64()
}

// Delay returns the deterministic backoff imposed after the given
// failed attempt (1-based) of the keyed task.
func (p Policy) Delay(key string, attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.JitterFrac > 0 {
		u := rng.New(p.Seed ^ hashString(key)).Derive(uint64(attempt)).Float64()
		d *= 1 + p.JitterFrac*(2*u-1)
	}
	return time.Duration(d)
}

// Wait sleeps d honoring ctx and returns ctx.Err() (nil when the wait
// ran out); d <= 0 does not sleep. The injected Sleep, when set,
// replaces the timer.
func (p Policy) Wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs fn under the policy, starting at attempt firstAttempt
// (1-based; resumed tasks pass their checkpointed attempt count + 1 so
// budgets span interruptions). fn receives the attempt number. Do
// returns nil on success; the task's error when the classifier says
// Fail or Abort (aborts keep their class for the caller to detect);
// and the final error wrapped with ErrBudgetExhausted when retries run
// out — including the degenerate firstAttempt > budget case, where fn
// never runs.
func (p Policy) Do(ctx context.Context, key string, firstAttempt int, fn func(attempt int) error) error {
	if firstAttempt < 1 {
		firstAttempt = 1
	}
	budget := p.Attempts()
	if firstAttempt > budget {
		return fmt.Errorf("%w: %s consumed %d of %d attempts before starting",
			ErrBudgetExhausted, key, firstAttempt-1, budget)
	}
	for attempt := firstAttempt; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn(attempt)
		if err == nil {
			return nil
		}
		decision := Fail
		if p.Classify != nil {
			decision = p.Classify(err)
		}
		if decision != Retry {
			return err
		}
		if attempt >= budget {
			return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempt, err)
		}
		if werr := p.Wait(ctx, p.Delay(key, attempt)); werr != nil {
			return werr
		}
	}
}

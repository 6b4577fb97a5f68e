package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamping(t *testing.T) {
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 2, 2},
		{1, 100, 1},
		{8, 8, 8},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		out, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Fatalf("no tasks: %v", err)
	}
	out, err := Map(context.Background(), 4, 0, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v, %v", out, err)
	}
}

// TestLowestIndexError verifies the deterministic error guarantee: when
// several tasks fail, the returned error is the lowest-indexed one —
// what a serial loop would have stopped at — regardless of scheduling.
func TestLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		for trial := 0; trial < 20; trial++ {
			err := ForEach(context.Background(), workers, 50, func(_ context.Context, i int) error {
				if i >= 7 && i%3 == 1 {
					return fmt.Errorf("task %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 7 failed" {
				t.Fatalf("workers=%d trial=%d: err = %v, want task 7", workers, trial, err)
			}
		}
	}
}

// TestLowestIndexErrorForcedSchedule forces the schedule in which a
// higher index's failure used to hide a lower one: index 1 fails while
// index 0 is still running, and only then does index 0 look at its
// context. A serial loop stops at index 0's own error, so the pool
// must return it too.
func TestLowestIndexErrorForcedSchedule(t *testing.T) {
	failed := make(chan struct{})
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			defer close(failed)
			return errors.New("task 1 failed")
		}
		afterFailure(ctx, failed)
		if err := ctx.Err(); err != nil {
			return err
		}
		return errors.New("task 0 failed")
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Fatalf("err = %v, want task 0 failed", err)
	}
}

// TestMapPartialAbortForcedSchedule is the MapPartial twin: index 1
// aborts while index 0 is still running, and index 0 must still record
// the outcome a serial run gives it.
func TestMapPartialAbortForcedSchedule(t *testing.T) {
	failed := make(chan struct{})
	out, errs, err := MapPartial(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			defer close(failed)
			return 0, Abort(errors.New("task 1 aborted"))
		}
		afterFailure(ctx, failed)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 42, nil
	})
	if err == nil || err.Error() != "task 1 aborted" {
		t.Fatalf("err = %v, want task 1 aborted", err)
	}
	if out[0] != 42 || errs[0] != nil {
		t.Fatalf("task 0 = (%d, %v), want (42, <nil>) as in a serial run", out[0], errs[0])
	}
}

// afterFailure is the barrier of the forced-schedule tests: it returns
// once the higher index has failed and the pool has had a grace period
// to react. A pool that cancels its tasks' context on a failure does so
// well within it.
func afterFailure(ctx context.Context, failed <-chan struct{}) {
	<-failed
	select {
	case <-ctx.Done():
	case <-time.After(50 * time.Millisecond):
	}
}

func TestErrorCancelsRemainingTasks(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), 2, 1000, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("all %d tasks ran despite early failure", n)
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(ctx, workers, 100, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Errorf("serial path ran %d tasks under a cancelled context", ran.Load())
		}
	}
}

// TestSerialPathNoGoroutines pins the Workers=1 contract: tasks run on
// the calling goroutine, in order.
func TestSerialPathNoGoroutines(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 1, 10, func(_ context.Context, i int) error {
		order = append(order, i) // safe only if single-goroutine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

// TestBoundedConcurrency checks that no more than `workers` tasks are
// ever in flight simultaneously.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := ForEach(context.Background(), workers, 200, func(context.Context, int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestParentCancellationMidPool covers the cancellation-in-flight
// edge: a parent cancelled while workers are busy must stop issuing
// new tasks and surface context.Canceled, at every pool shape.
func TestParentCancellationMidPool(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(ctx, workers, 1000, func(_ context.Context, i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers=%d: all %d tasks ran despite mid-pool cancellation", workers, n)
		}
	}
}

// TestZeroTasksCancelledContext pins the n==0 edge under a dead
// context: nothing to do still reports the cancellation rather than
// claiming success.
func TestZeroTasksCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, workers, 0, func(context.Context, int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ForEach(ctx, 0) = %v, want context.Canceled", workers, err)
		}
	}
}

// TestMapPartialContinuesPastFailures pins the partial-coverage
// contract: per-task errors are recorded in place and never stop the
// pool.
func TestMapPartialContinuesPastFailures(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, errs, err := MapPartial(context.Background(), workers, 6,
			func(_ context.Context, i int) (int, error) {
				if i%2 == 1 {
					return 0, boom
				}
				return i * i, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: run error %v; per-task failures must not stop the pool", workers, err)
		}
		for i := 0; i < 6; i++ {
			if i%2 == 1 {
				if !errors.Is(errs[i], boom) {
					t.Errorf("workers=%d: errs[%d] = %v, want boom", workers, i, errs[i])
				}
			} else if errs[i] != nil || out[i] != i*i {
				t.Errorf("workers=%d: task %d = (%d, %v)", workers, i, out[i], errs[i])
			}
		}
	}
}

// TestMapPartialAbort covers the one per-task error that does stop the
// pool: an Abort-wrapped error aborts the run, unstarted tasks record
// ErrSkipped, and the lowest-indexed aborter wins deterministically.
func TestMapPartialAbort(t *testing.T) {
	cause := errors.New("preempted")
	for _, workers := range []int{1, 4} {
		_, errs, err := MapPartial(context.Background(), workers, 100,
			func(_ context.Context, i int) (int, error) {
				if i == 2 || i == 50 {
					return 0, Abort(fmt.Errorf("task %d: %w", i, cause))
				}
				return i, nil
			})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: err = %v, want the abort cause", workers, err)
		}
		var ae *AbortError
		if errors.As(err, &ae) {
			t.Fatalf("workers=%d: the run error is the unwrapped cause, not the marker", workers)
		}
		if !strings.Contains(err.Error(), "task 2") {
			t.Errorf("workers=%d: lowest-indexed aborter should win, got %v", workers, err)
		}
		skipped := 0
		for _, e := range errs {
			if errors.Is(e, ErrSkipped) {
				skipped++
			}
		}
		if workers == 1 && skipped != 97 {
			t.Errorf("serial abort at task 2 should skip 97 tasks, skipped %d", skipped)
		}
		if skipped == 0 {
			t.Errorf("workers=%d: an abort should leave unstarted tasks marked ErrSkipped", workers)
		}
	}
}

// TestMapPartialCancelledContext: a dead parent yields all-skipped
// tasks and the cancellation as the run error.
func TestMapPartialCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, errs, err := MapPartial(ctx, 4, 5, func(_ context.Context, i int) (int, error) {
		return i + 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range errs {
		if !errors.Is(errs[i], ErrSkipped) {
			t.Errorf("errs[%d] = %v, want ErrSkipped", i, errs[i])
		}
		if out[i] != 0 {
			t.Errorf("out[%d] = %d for a skipped task", i, out[i])
		}
	}
}

// Package par is the repository's concurrency substrate: a bounded
// worker pool with deterministic, input-ordered result collection and
// first-error cancellation.
//
// The measurement campaign (internal/sim, internal/ceer) and the
// experiments harness fan their independent (CNN, GPU, k) tasks out
// through this package. Parallel runs must be indistinguishable from
// serial ones, so two properties are load-bearing:
//
//   - Determinism. Each task's result lands at the index of its input,
//     never in completion order. A failure skips only the indices above
//     it, and no task's context is cancelled by another task's failure,
//     so every index below the lowest failure runs exactly as in a
//     serial loop: the error returned is that of the lowest-indexed
//     failing task — the one a serial loop would have stopped at —
//     regardless of goroutine scheduling.
//
//   - Bounded footprint. At most `workers` tasks run at once, and
//     workers == 1 degenerates to a plain serial loop on the calling
//     goroutine with no goroutines spawned, preserving the serial code
//     path exactly.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), and the result is clamped to [1, n] so a pool
// never spawns more goroutines than it has tasks.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most
// Workers(workers, n) goroutines. It returns the error of the
// lowest-indexed failing task; once a task fails, unstarted tasks
// above it are skipped and tasks already running finish. A cancelled
// context stops the loop between tasks and is reported as ctx.Err().
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if Workers(workers, n) == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	return forEachParallel(ctx, Workers(workers, n), n, fn)
}

// forEachParallel is ForEach's pool. Every task gets the caller's
// context as is: cancelling it on a failure would hand a lower index
// that is still running a cancelled context, and that index's outcome
// would then depend on the schedule.
func forEachParallel(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	var (
		fail    = lowestFailure{idx: n}
		nextIdx atomic.Int64
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= n || ctx.Err() != nil || fail.skip(i) {
					return
				}
				if err := fn(ctx, i); err != nil {
					fail.record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail.err != nil {
		return fail.err
	}
	return ctx.Err()
}

// lowestFailure records the lowest-indexed failure (or abort) of a
// pool.
type lowestFailure struct {
	mu  sync.Mutex
	idx int
	err error
}

// skip reports whether claimed index i lies above the recorded
// failure, where a serial loop would never have reached it. An index
// below it still runs, whatever the schedule, and may record a lower
// failure.
func (l *lowestFailure) skip(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return i > l.idx
}

// record keeps err if i is the lowest failing index so far.
func (l *lowestFailure) record(i int, err error) {
	l.mu.Lock()
	if i < l.idx {
		l.idx, l.err = i, err
	}
	l.mu.Unlock()
}

// AbortError marks a task error that must stop the whole pool, not
// just fail its own index: MapPartial treats it the way ForEach treats
// any error. Build one with Abort.
type AbortError struct{ Err error }

// Error renders the wrapped cause.
func (e *AbortError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause, so errors.Is/As see through the marker.
func (e *AbortError) Unwrap() error { return e.Err }

// Abort wraps err so MapPartial aborts the pool when a task returns
// it. Abort(nil) returns nil.
func Abort(err error) error {
	if err == nil {
		return nil
	}
	return &AbortError{Err: err}
}

// ErrSkipped is the per-index error MapPartial records for tasks that
// never ran because the pool aborted or the context was cancelled
// first.
var ErrSkipped = errors.New("par: task skipped")

// MapPartial runs fn over [0, n) like Map but keeps going past
// individual task failures: out[i] and errs[i] record every task's
// result and final error in input order (errs[i] == nil marks
// success). Only two things stop the pool early — parent-context
// cancellation, and a task returning an error wrapped with Abort — and
// both are reported through the third return value (for aborts, the
// lowest-indexed aborting task's unwrapped error, mirroring ForEach's
// lowest-index determinism). Tasks that never started carry ErrSkipped
// in errs.
func MapPartial[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if n <= 0 {
		return nil, nil, ctx.Err()
	}
	out := make([]T, n)
	errs := make([]error, n)
	for i := range errs {
		errs[i] = ErrSkipped
	}
	if Workers(workers, n) == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, errs, err
			}
			v, err := fn(ctx, i)
			var abort *AbortError
			if errors.As(err, &abort) {
				errs[i] = abort.Err
				return out, errs, abort.Err
			}
			out[i], errs[i] = v, err
		}
		return out, errs, nil
	}
	err := mapPartialParallel(ctx, Workers(workers, n), n, out, errs, fn)
	return out, errs, err
}

func mapPartialParallel[T any](ctx context.Context, workers, n int, out []T, errs []error, fn func(ctx context.Context, i int) (T, error)) error {
	var (
		fail    = lowestFailure{idx: n}
		nextIdx atomic.Int64
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				// As in forEachParallel: every index below a recorded
				// abort runs and leaves a real outcome in errs.
				if i >= n || ctx.Err() != nil || fail.skip(i) {
					return
				}
				v, err := fn(ctx, i)
				var abort *AbortError
				if errors.As(err, &abort) {
					errs[i] = abort.Err
					fail.record(i, abort.Err)
					return
				}
				// Each index is claimed exactly once, so these writes
				// are race-free and published by wg.Wait.
				out[i], errs[i] = v, err
			}
		}()
	}
	wg.Wait()
	if fail.err != nil {
		return fail.err
	}
	return ctx.Err()
}

// Map runs fn over [0, n) like ForEach and collects the results in
// input order: out[i] is fn's result for index i, independent of which
// worker computed it or when it finished. On error the partial results
// are discarded and the lowest-indexed task error is returned.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		n = 0
	}
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

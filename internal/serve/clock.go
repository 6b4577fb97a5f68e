package serve

import "time"

// Clock is the daemon's only time source: admission refill, request
// deadlines, latency metrics and the health breaker all read
// monotonic nanoseconds from it. Injecting a virtual clock makes every
// time-dependent behaviour (token refill, 429 shedding, 504 budgets)
// deterministic in tests — the same reason the simulator owns its own
// rng streams instead of sampling wall-clock entropy.
type Clock interface {
	// Nanos returns monotonic nanoseconds since an arbitrary epoch.
	Nanos() int64
}

// realClock reads the process monotonic clock, anchored at construction
// so Nanos stays small and overflow-free.
type realClock struct {
	base time.Time
}

// NewRealClock returns the production monotonic clock.
func NewRealClock() Clock { return realClock{base: time.Now()} }

func (c realClock) Nanos() int64 { return time.Since(c.base).Nanoseconds() }

// Package hot exercises the hot-path proof's lock, map and append
// rules: a function marked //hot:path must not lock, index maps, or append.
package hot

import "sync"

// table mixes compiled flat arrays with the memo-style state the
// compiled serving core exists to retire.
type table struct {
	mu    sync.Mutex
	rwmu  sync.RWMutex
	memo  map[string]float64
	times []float64
}

// badLookup acquires a mutex and reads a map on a marked hot path.
//
//hot:path
func (t *table) badLookup(key string) float64 {
	t.mu.Lock() // want `sync Lock acquired in //hot:path function table.badLookup`
	defer t.mu.Unlock()
	return t.memo[key] // want `map index in //hot:path function table.badLookup`
}

// badReadLock takes a read lock and tries an upgrade.
//
//hot:path
func (t *table) badReadLock() int {
	t.rwmu.RLock() // want `sync RLock acquired in //hot:path function table.badReadLock`
	n := len(t.times)
	t.rwmu.RUnlock()
	if t.mu.TryLock() { // want `sync TryLock acquired in //hot:path function table.badReadLock`
		t.mu.Unlock()
	}
	return n
}

// badAppend grows a slice per call, including inside a nested function
// literal (which belongs to the marked function).
//
//hot:path
func (t *table) badAppend(v float64) []float64 {
	out := append(t.times, v) // want `append may grow its backing array in //hot:path function table.badAppend`
	grow := func() {          // want `function literal allocates a closure in //hot:path function table.badAppend`
		out = append(out, v) // want `append may grow its backing array in //hot:path function table.badAppend`
	}
	grow() // want `call through a function value is unprovable`
	return out
}

// badStore writes through a map index on the hot path.
//
//hot:path
func (t *table) badStore(key string, v float64) {
	t.memo[key] = v // want `map index in //hot:path function table.badStore`
}

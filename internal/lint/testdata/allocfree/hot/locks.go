package hot

import "sync"

// The hot path is lock-free and map-free all the way down: a root that
// is clean in isolation still fails when a helper it calls takes a
// lock, captures a lock method value, or reads a map. Each finding
// lands in the helper and names the root that reaches it.

// registry mirrors a mutex-guarded lookup table like the device
// registry's.
type registry struct {
	mu   sync.RWMutex
	byID map[string]int
}

// lockedRoot takes a lock in the root itself.
//
//hot:path
func (c *core) lockedRoot(idx []int) float64 {
	c.mu.Lock() // want `sync Lock acquired in //hot:path function core.lockedRoot`
	var sum float64
	for _, i := range idx {
		sum += c.vals[i]
	}
	c.mu.Unlock()
	return sum
}

// lockHelper takes a lock one call below its root.
func (c *core) lockHelper() {
	c.mu.Lock() // want `sync Lock acquired in core.lockHelper .reachable from //hot:path core.lockRoot.`
	c.mu.Unlock()
}

// lockRoot is clean in isolation.
//
//hot:path
func (c *core) lockRoot() {
	c.lockHelper()
}

// rlockHelper hands out a read-lock method value; whoever calls it
// takes the lock.
func (r *registry) rlockHelper() func() {
	return r.mu.RLock // want `method value of sync RLock captured in registry.rlockHelper .reachable from //hot:path registry.rlockRoot.`
}

// rlockRoot is clean in isolation.
//
//hot:path
func (r *registry) rlockRoot() func() {
	return r.rlockHelper()
}

// lookup reads a map one call below its root.
func (r *registry) lookup(id string) int {
	return r.byID[id] // want `map index in registry.lookup .reachable from //hot:path registry.mapRoot.`
}

// mapRoot is clean in isolation.
//
//hot:path
func (r *registry) mapRoot(id string) int {
	return r.lookup(id)
}

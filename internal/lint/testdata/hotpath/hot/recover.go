package hot

// The daemon's panic-recovery wrapper: the marked request path defers
// a DIRECT call to a //hot:exempt guard, so the walk stops there and
// the guard's append-heavy failure rendering (after a panic only)
// stays outside the proof. A deferred closure drags that rendering
// INTO the root, and the proof rejects it.

// recoverGuard renders the failure body after a panic.
//
//hot:exempt recovery boundary: runs only after a panic, off the success path
func (d *daemon) recoverGuard(ep int) {
	if r := recover(); r != nil {
		d.counters[ep].Add(1)
		d.buf = append(d.buf[:0], "panic"...)
	}
}

// cleanRecover is the sanctioned shape: deferred direct method call.
//
//hot:path
func (d *daemon) cleanRecover(ep int) {
	defer d.recoverGuard(ep)
	d.counters[ep].Add(1)
}

// badRecoverClosure inlines the guard as a literal, pulling its
// rendering onto the marked path.
//
//hot:path
func (d *daemon) badRecoverClosure(ep int) {
	defer func() { // want `function literal allocates a closure in //hot:path function daemon.badRecoverClosure`
		if r := recover(); r != nil {
			d.buf = append(d.buf[:0], "panic"...) // want `append may grow its backing array in //hot:path function daemon.badRecoverClosure`
		}
	}()
	d.counters[ep].Add(1)
}

package hot

// badMethodValue captures a lock acquisition as a method value: the
// capture itself allocates, and calling the value later takes the lock
// without a direct call expression for the proof's call check to
// see.
//
//hot:path
func (t *table) badMethodValue() func() {
	lock := t.mu.Lock // want `method value of sync Lock captured in //hot:path function table.badMethodValue`
	return lock
}

// badDeferLock acquires the lock through a defer statement.
//
//hot:path
func (t *table) badDeferLock() {
	defer t.mu.Lock() // want `sync Lock acquired in //hot:path function table.badDeferLock`
}

// cleanMethodValue is unmarked: method values are fine off the hot
// path.
func (t *table) cleanMethodValue() func() {
	return t.mu.Lock
}

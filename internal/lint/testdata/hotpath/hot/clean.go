package hot

// buildTable is unmarked compile-time code: locks, maps, and append
// are all fine off the hot path.
func buildTable(src map[string]float64) *table {
	t := &table{memo: make(map[string]float64)}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range src {
		t.memo[k] = v
		t.times = append(t.times, v)
	}
	return t
}

// cleanGather is the sanctioned hot-path shape: a pure gather-and-sum
// over precompiled flat arrays. Slice indexing stays legal.
//
//hot:path
func (t *table) cleanGather(idx []int) float64 {
	var sum float64
	for _, i := range idx {
		sum += t.times[i]
	}
	return sum
}

// cleanSuppressed documents a deliberate, reviewed exception with the
// standard suppression directive.
//
//hot:path
func (t *table) cleanSuppressed(key string) float64 {
	//lint:ignore allocfree fixture proves the suppression path works
	return t.memo[key]
}

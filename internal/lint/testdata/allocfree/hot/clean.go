package hot

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

type core struct {
	mu   sync.Mutex
	hits atomic.Uint64
	vals []float64
	buf  []byte
}

// render is a vetted boundary: the append encoding is amortized into
// a reused buffer and pinned by allocation benchmarks, so the walk
// stops here instead of flagging the appends.
//
//hot:exempt amortized append encoder, pinned by AllocsPerRun benches
func (c *core) render(v float64) {
	c.buf = append(c.buf[:0], 'v')
	c.buf = strconv.AppendFloat(c.buf, v, 'f', -1, 64)
}

// cleanRoot is the sanctioned hot-path shape: atomics, flat-array
// gathers, math, allowlisted externals, and a vetted boundary call.
//
//hot:path
func (c *core) cleanRoot(idx []int, v float64) float64 {
	c.hits.Add(1)
	var sum float64
	for _, i := range idx {
		sum += c.vals[i]
	}
	c.render(v)
	return math.Sqrt(sum)
}

// cleanParse uses the allowlisted strconv parser.
//
//hot:path
func cleanParse(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

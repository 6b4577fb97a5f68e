// Package hot exercises the allocfree analyzer: every allocating
// construct inside a //hot:path root must be reported, one finding
// per line so the want comments stay unambiguous.
package hot

type stats struct{ n int }

// badBasics trips each local allocating construct once.
//
//hot:path
func badBasics(k string, n int) float64 {
	xs := make([]float64, n) // want `make allocates in //hot:path function badBasics`
	p := new(stats)          // want `new allocates in //hot:path function badBasics`
	xs = append(xs, 1)       // want `append may grow its backing array in //hot:path function badBasics`
	ys := []int{1, 2}        // want `slice literal allocates in //hot:path function badBasics`
	m := map[string]int{}    // want `map literal allocates in //hot:path function badBasics`
	m[k] = n                 // want `map index in //hot:path function badBasics`
	q := &stats{n: n}        // want `address of composite literal escapes and allocates`
	s := k + "!"             // want `string concatenation allocates in //hot:path function badBasics`
	s += k                   // want `string concatenation allocates in //hot:path function badBasics`
	_, _, _ = s, ys, q
	return xs[0] + float64(p.n)
}

// badConvert trips the copying conversions.
//
//hot:path
func badConvert(bs []byte, s string, v float64) int {
	str := string(bs) // want `conversion to string allocates`
	b2 := []byte(s)   // want `conversion copies and allocates`
	x := any(v)       // want `conversion boxes float64 into interface`
	_, _ = str, x
	return len(b2)
}

// badClosure allocates a closure and a goroutine.
//
//hot:path
func badClosure(v float64) float64 {
	f := func() float64 { // want `function literal allocates a closure`
		return v
	}
	_ = f
	go noop() // want `go statement allocates a goroutine`
	return v
}

func noop() {}

// badExempt is a boundary missing its mandatory reason.
//
//hot:exempt
func badExempt() {} // want `hot:exempt on badExempt needs a reason`

// badBoth claims to be a root and a boundary at once.
//
//hot:path
//hot:exempt can't be both
func badBoth() {} // want `badBoth is marked both`

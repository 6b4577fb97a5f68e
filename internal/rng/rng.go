// Package rng implements a small, deterministic pseudo-random number
// generator used by the hardware simulator.
//
// The simulator must be reproducible across runs, platforms, and Go
// releases so that tests and experiment outputs are stable; math/rand's
// global source and its version-dependent algorithms are unsuitable. The
// generator here is SplitMix64 (Steele, Lea & Flood, OOPSLA'14), a tiny,
// well-distributed 64-bit mixer, combined with a Box–Muller transform for
// Gaussian variates.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers. The zero
// value is a valid source seeded with 0.
type Source struct {
	state uint64
	// spare caches the second Box–Muller variate between Normal calls
	// (0 when none is pending).
	spare    float64
	hasSpare bool
}

// New returns a source seeded with the given value. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source { return &Source{state: seed} }

// Derive returns a new source whose stream is a deterministic function of
// this source's seed and the given label, without consuming any values
// from the parent stream. It is used to give each (operation, GPU)
// simulation its own independent noise stream.
func (s *Source) Derive(label uint64) *Source {
	return &Source{state: mix(s.state ^ mix(label))}
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	// Use the top 53 bits for a full-precision mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Normal returns a standard Gaussian variate (mean 0, stddev 1) via the
// Box–Muller transform.
func (s *Source) Normal() float64 {
	if s.hasSpare {
		return s.takeSpare()
	}
	z, spare := s.pair()
	s.spare, s.hasSpare = spare, true
	return z
}

// Normals fills zs with the next len(zs) standard Gaussian variates:
// exactly the values len(zs) successive Normal calls would return, and
// the source is left in the state those calls would leave. A pending
// spare comes first, and an odd remainder leaves its pair's second
// variate pending.
func (s *Source) Normals(zs []float64) {
	if len(zs) > 0 && s.hasSpare {
		zs[0] = s.takeSpare()
		zs = zs[1:]
	}
	for len(zs) >= 2 {
		zs[0], zs[1] = s.pair()
		zs = zs[2:]
	}
	if len(zs) == 1 {
		zs[0], s.spare = s.pair()
		s.hasSpare = true
	}
}

// takeSpare returns the pending second variate of the last pair and
// clears it, so a source's state depends only on what it has drawn.
func (s *Source) takeSpare() float64 {
	z := s.spare
	s.spare, s.hasSpare = 0, false
	return z
}

// pair draws one Box–Muller pair: a uniform u in (0, 1), redrawn while
// it is 0, then a uniform v.
func (s *Source) pair() (float64, float64) {
	var u float64
	for {
		u = s.Float64()
		if u > 0 {
			break
		}
	}
	return boxMuller(u, s.Float64())
}

// boxMuller maps the uniforms u and v to r·cos θ, which Normal returns
// first, and r·sin θ, its spare, where r = √(−2 ln u) and θ = 2πv.
// math.Sincos shares the range reduction and the polynomials of
// math.Sin and math.Cos, so each variate has the bits the separate
// calls give, at one reduction for both.
func boxMuller(u, v float64) (float64, float64) {
	r := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	return r * cos, r * sin
}

// LogNormalFactor returns a multiplicative noise factor with median 1
// whose logarithm has the given standard deviation. For small sigma the
// factor's coefficient of variation is approximately sigma, which is how
// the simulator dials in a target normalized standard deviation.
func (s *Source) LogNormalFactor(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(sigma * s.Normal())
}

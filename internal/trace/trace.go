// Package trace holds the op-level profiling data the simulator
// produces and Ceer consumes: per-node compute-time samples aggregated
// over training iterations, tagged with the CNN, GPU model, operation
// type, class, and regression features.
//
// Aggregation uses Welford's online algorithm so a 1,000-iteration
// profile of a 3,000-node graph needs constant memory per node, while a
// capped reservoir of raw samples is retained for median-based
// estimators (Ceer's light/CPU-op models) and distribution plots.
package trace

import (
	"fmt"
	"math"
	"sort"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
)

// Agg is an online mean/variance accumulator with bounded raw-sample
// retention.
type Agg struct {
	n        int
	mean, m2 float64
	min, max float64
	// retained holds up to cap raw samples (the first cap observations;
	// samples are exchangeable here because the noise process is i.i.d.).
	retained []float64
	cap      int
}

// NewAgg creates an accumulator retaining at most retain raw samples.
func NewAgg(retain int) *Agg {
	return &Agg{cap: retain, min: math.Inf(1), max: math.Inf(-1)}
}

// RestoreAgg rebuilds an accumulator from exported summary statistics
// and an optional retained-sample slice (see Profile.ImportJSON). The
// restored accumulator reports the same N, Mean, Std, Min, Max, and
// Retained values; further Add calls behave normally.
func RestoreAgg(n int, mean, std, min, max float64, retained []float64) *Agg {
	a := &Agg{
		n:        n,
		mean:     mean,
		m2:       std * std * float64(n),
		min:      min,
		max:      max,
		retained: append([]float64(nil), retained...),
		cap:      len(retained),
	}
	return a
}

// Add folds one observation into the accumulator.
func (a *Agg) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
	if len(a.retained) < a.cap {
		if a.retained == nil {
			// One allocation for the whole reservoir, not append's
			// doublings on the way up to it.
			a.retained = make([]float64, 0, a.cap)
		}
		a.retained = append(a.retained, x)
	}
}

// N returns the observation count.
func (a *Agg) N() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Agg) Mean() float64 { return a.mean }

// Std returns the population standard deviation.
func (a *Agg) Std() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// NormalizedStd returns Std/Mean, the paper's Figure 5 metric (0 when
// the mean is 0).
func (a *Agg) NormalizedStd() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / a.mean
}

// Min and Max return the observed extremes (±Inf when empty).
func (a *Agg) Min() float64 { return a.min }

// Max returns the largest observation.
func (a *Agg) Max() float64 { return a.max }

// Retained returns the kept raw samples (shared slice; do not modify).
func (a *Agg) Retained() []float64 { return a.retained }

// Series is the aggregated profile of one graph node on one (CNN, GPU)
// pair: the unit of Ceer's training data.
type Series struct {
	CNN    string
	GPU    gpu.ID
	Node   graph.NodeID
	OpType ops.Type
	Class  ops.Class
	Phase  graph.Phase
	// Features is the op's regression feature vector (input sizes).
	Features []float64
	// InputBytes and OutputBytes summarize the op's tensor sizes.
	InputBytes  int64
	OutputBytes int64
	// Agg holds the compute-time sample statistics (seconds).
	Agg *Agg
}

// Profile is the full op-level trace of training one CNN on one GPU
// model: one Series per graph node plus the per-iteration totals.
type Profile struct {
	CNN        string
	GPU        gpu.ID
	Iterations int
	// Params is the CNN's trainable-parameter count.
	Params int64
	// BatchSize is the per-GPU batch the profile was taken at.
	BatchSize int64
	// Series has one entry per graph node, in node order.
	Series []*Series
	// IterTotal aggregates the summed per-iteration op time (seconds),
	// excluding communication overhead.
	IterTotal *Agg
}

// ByType groups the profile's series by operation type.
func (p *Profile) ByType() map[ops.Type][]*Series {
	out := make(map[ops.Type][]*Series)
	for _, s := range p.Series {
		out[s.OpType] = append(out[s.OpType], s)
	}
	return out
}

// ClassShare returns the fraction of total mean op time contributed by
// each class — the paper's observation that heavy ops contribute
// 47%–94% and light ops < 7%.
func (p *Profile) ClassShare() map[ops.Class]float64 {
	sums := make(map[ops.Class]float64)
	total := 0.0
	for _, s := range p.Series {
		sums[s.Class] += s.Agg.Mean()
		total += s.Agg.Mean()
	}
	if total == 0 {
		return sums
	}
	for c := range sums {
		sums[c] /= total
	}
	return sums
}

// MeanIterSeconds returns the mean summed op time per iteration.
func (p *Profile) MeanIterSeconds() float64 { return p.IterTotal.Mean() }

// MissingCell records one measurement-campaign cell that produced no
// surviving observation: the cell's identity plus why it is missing
// (retries exhausted, permanent fault, ...). Missing cells are how a
// partially-covered campaign degrades gracefully instead of aborting —
// downstream training fits on the surviving data and marks the
// affected devices as degraded.
type MissingCell struct {
	CNN string
	GPU gpu.ID
	// K is the GPU count of a communication cell; 0 marks an op-level
	// profile cell.
	K int
	// Reason describes the final failure.
	Reason string
}

// String renders "cnn/gpu" or "cnn/gpu/k" plus the reason.
func (m MissingCell) String() string {
	if m.K > 0 {
		return fmt.Sprintf("%s/%s/k=%d: %s", m.CNN, m.GPU, m.K, m.Reason)
	}
	return fmt.Sprintf("%s/%s: %s", m.CNN, m.GPU, m.Reason)
}

// Bundle is a set of profiles spanning CNNs and GPU models — Ceer's
// training corpus.
type Bundle struct {
	Profiles []*Profile
	// Missing records campaign cells with no observation, sorted by
	// (CNN, GPU, K). Empty for fully covered campaigns.
	Missing []MissingCell
}

// AddMissing records an uncovered cell, keeping Missing sorted.
func (b *Bundle) AddMissing(c MissingCell) {
	i := sort.Search(len(b.Missing), func(i int) bool {
		m := b.Missing[i]
		if m.CNN != c.CNN {
			return m.CNN > c.CNN
		}
		if m.GPU != c.GPU {
			return m.GPU > c.GPU
		}
		return m.K >= c.K
	})
	b.Missing = append(b.Missing, MissingCell{})
	copy(b.Missing[i+1:], b.Missing[i:])
	b.Missing[i] = c
}

// MissingForGPU returns the uncovered cells of one device.
func (b *Bundle) MissingForGPU(m gpu.ID) []MissingCell {
	var out []MissingCell
	for _, c := range b.Missing {
		if c.GPU == m {
			out = append(out, c)
		}
	}
	return out
}

// Add appends a profile.
func (b *Bundle) Add(p *Profile) { b.Profiles = append(b.Profiles, p) }

// Filter returns the profiles matching the predicate.
func (b *Bundle) Filter(keep func(*Profile) bool) []*Profile {
	var out []*Profile
	for _, p := range b.Profiles {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// ForGPU returns the profiles measured on one GPU model.
func (b *Bundle) ForGPU(m gpu.ID) []*Profile {
	return b.Filter(func(p *Profile) bool { return p.GPU == m })
}

// ForCNN returns the profiles of one CNN across GPUs.
func (b *Bundle) ForCNN(name string) []*Profile {
	return b.Filter(func(p *Profile) bool { return p.CNN == name })
}

// Find returns the profile of (cnn, gpu), if present.
func (b *Bundle) Find(cnn string, m gpu.ID) (*Profile, bool) {
	for _, p := range b.Profiles {
		if p.CNN == cnn && p.GPU == m {
			return p, true
		}
	}
	return nil, false
}

// CNNs lists the distinct CNN names present, sorted.
func (b *Bundle) CNNs() []string {
	seen := make(map[string]bool)
	for _, p := range b.Profiles {
		seen[p.CNN] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MeanTimeByType returns, for one GPU model, the mean compute time of
// each op type averaged over every instance and iteration in the bundle
// — the quantity plotted in the paper's Figure 2.
func (b *Bundle) MeanTimeByType(m gpu.ID) map[ops.Type]float64 {
	sums := make(map[ops.Type]float64)
	counts := make(map[ops.Type]float64)
	for _, p := range b.ForGPU(m) {
		for _, s := range p.Series {
			sums[s.OpType] += s.Agg.Mean() * float64(s.Agg.N())
			counts[s.OpType] += float64(s.Agg.N())
		}
	}
	out := make(map[ops.Type]float64, len(sums))
	for t, sum := range sums {
		if counts[t] > 0 {
			out[t] = sum / counts[t]
		}
	}
	return out
}

// Validate checks structural consistency of a profile.
func (p *Profile) Validate() error {
	if p.Iterations <= 0 {
		return fmt.Errorf("trace: profile %s/%s has %d iterations", p.CNN, p.GPU, p.Iterations)
	}
	for _, s := range p.Series {
		if s.Agg == nil || s.Agg.N() != p.Iterations {
			return fmt.Errorf("trace: series %s in %s/%s has %d samples, want %d",
				s.OpType, p.CNN, p.GPU, s.Agg.N(), p.Iterations)
		}
	}
	return nil
}

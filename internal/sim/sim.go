// Package sim replays CNN training-iteration DAGs against the gpu and
// cloud substrates, playing the role the paper's real AWS measurement
// campaign plays: it produces op-level profiles (the training data for
// Ceer's models) and end-to-end "observed" training-time measurements
// (the ground truth the evaluation compares Ceer's predictions against).
//
// All randomness is derived deterministically from a caller-provided
// seed, the CNN name, the GPU device's stable seed ID, and the node
// ID, so every
// experiment is exactly reproducible.
package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/par"
	"ceer/internal/rng"
	"ceer/internal/trace"
)

// Profiler collects op-level compute-time samples over repeated
// training iterations, like the paper's 1,000-iteration TensorFlow
// timeline captures (Section III-A).
type Profiler struct {
	// Seed drives all measurement noise.
	Seed uint64
	// Iterations is the number of training iterations sampled.
	Iterations int
	// Retain caps the raw samples kept per node for median estimators.
	Retain int
	// Workers bounds how many (CNN, GPU) profiles ProfileAll measures
	// concurrently: <= 0 selects GOMAXPROCS, 1 runs serially on the
	// calling goroutine. Parallel runs are byte-identical to serial
	// ones because every node's noise stream is derived solely from
	// (Seed, CNN, GPU, node) and results are collected in input order.
	Workers int
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv Write never fails
	return h.Sum64()
}

// Profile runs the graph for the configured number of iterations on one
// GPU model and returns the aggregated op-level trace. The context is
// checked between blocks of nodes (see sampleNodes), so a deadline or
// cancellation interrupts a long profile promptly. Configuration
// errors carry the faults.Permanent class: no retry can cure an
// unknown device or a non-positive iteration count.
func (p *Profiler) Profile(ctx context.Context, g *graph.Graph, m gpu.ID) (*trace.Profile, error) {
	if p.Iterations <= 0 {
		return nil, faults.Permanentf("sim: profiler iterations must be positive, got %d", p.Iterations)
	}
	dev, ok := gpu.Lookup(m)
	if !ok {
		return nil, faults.Permanentf("sim: unknown GPU device %q", string(m))
	}
	nodes := g.Nodes()
	prof := &trace.Profile{
		CNN:        g.Name,
		GPU:        m,
		Iterations: p.Iterations,
		Params:     g.Params,
		BatchSize:  g.BatchSize,
		Series:     make([]*trace.Series, len(nodes)),
		IterTotal:  trace.NewAgg(p.Retain),
	}
	aggs := make([]*trace.Agg, len(nodes))
	for i, n := range nodes {
		aggs[i] = trace.NewAgg(p.Retain)
		prof.Series[i] = &trace.Series{
			CNN:         g.Name,
			GPU:         m,
			Node:        n.ID,
			OpType:      n.Op.Type,
			Class:       n.Op.Class(),
			Phase:       n.Phase,
			Features:    n.Op.Features(),
			InputBytes:  n.Op.InputBytes(),
			OutputBytes: n.Op.OutputBytes(),
			Agg:         aggs[i],
		}
	}
	totals, err := sampleNodes(ctx, p.Seed, g, dev, p.Iterations, aggs)
	if err != nil {
		return nil, err
	}
	for _, t := range totals {
		prof.IterTotal.Add(t)
	}
	return prof, nil
}

// blockNodes is how many nodes sampleNodes draws before it folds their
// samples in. It is a tuning constant, not a parameter: no output
// depends on it.
const blockNodes = 8

// sampleNodes plays iters training iterations of g on dev and returns
// each iteration's total op time; when aggs is non-nil, node i's
// samples also go to aggs[i]. Each node's noise stream is derived from
// (seed, CNN, device SeedID, node ID) alone. SeedID is frozen per
// device, never its registry position, so registering extra devices
// (or reordering registration) leaves every existing measurement
// byte-identical.
//
// Nodes are drawn a block at a time, each node's iters samples in one
// tight loop (drawNode). The block is then walked iteration-major, so
// node i's samples reach aggs[i] in iteration order and totals[it]
// adds iteration it's samples in node order, starting from 0: every
// stream, Agg and total sees exactly what a loop drawing one iteration
// of every node through dev.SampleTime gives (DESIGN §7). The context
// is checked once per block.
func sampleNodes(ctx context.Context, seed uint64, g *graph.Graph, dev *gpu.Device, iters int, aggs []*trace.Agg) ([]float64, error) {
	nodes := g.Nodes()
	base := rng.New(seed ^ hashString(g.Name))
	totals := make([]float64, iters)
	rows := make([]float64, blockNodes*iters)
	for lo := 0; lo < len(nodes); lo += blockNodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		block := nodes[lo:min(lo+blockNodes, len(nodes))]
		for j, n := range block {
			drawNode(rows[j*iters:(j+1)*iters], dev.BaseTime(n.Op), dev.Sigma(n.Op),
				base.Derive(dev.SeedID<<32^uint64(n.ID)))
		}
		for it := range totals {
			t := totals[it]
			for j := range block {
				x := rows[j*iters+it]
				if aggs != nil {
					aggs[lo+j].Add(x)
				}
				t += x
			}
			totals[it] = t
		}
	}
	return totals, nil
}

// drawNode fills row with one node's samples in iteration order, each
// base·exp(sigma·z) for the stream's next normal z: the expression, and
// so the bits, of dev.SampleTime. Like rng.LogNormalFactor, a sigma <= 0
// draws nothing and every sample is base.
func drawNode(row []float64, base, sigma float64, src *rng.Source) {
	if sigma <= 0 {
		for i := range row {
			row[i] = base
		}
		return
	}
	src.Normals(row)
	for i, z := range row {
		row[i] = base * math.Exp(sigma*z)
	}
}

// ProfileAll profiles each named CNN (built at the given batch size) on
// each listed GPU device, returning the combined bundle — the full measurement
// campaign of Section III. Independent (CNN, GPU) profiles are fanned
// out over Workers goroutines; the bundle's profile order (names-major,
// devices-minor) and every sample in it are identical to a serial run.
func (p *Profiler) ProfileAll(ctx context.Context, build func(string, int64) (*graph.Graph, error),
	names []string, batch int64, devices []gpu.ID) (*trace.Bundle, error) {
	graphs, err := par.Map(ctx, p.Workers, len(names), func(_ context.Context, i int) (*graph.Graph, error) {
		g, err := build(names[i], batch)
		if err != nil {
			return nil, fmt.Errorf("sim: building %s: %w", names[i], err)
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	profs, err := par.Map(ctx, p.Workers, len(names)*len(devices), func(ctx context.Context, i int) (*trace.Profile, error) {
		return p.Profile(ctx, graphs[i/len(devices)], devices[i%len(devices)])
	})
	if err != nil {
		return nil, err
	}
	bundle := &trace.Bundle{}
	for _, prof := range profs {
		bundle.Add(prof)
	}
	return bundle, nil
}

// Measurement is one observed end-to-end training run.
type Measurement struct {
	CNN string
	Cfg cloud.Config
	// PerIterSeconds is the mean observed wall time of one training
	// iteration: summed op compute time plus communication overhead.
	PerIterSeconds float64
	// ComputeSeconds and CommSeconds decompose the per-iteration mean.
	ComputeSeconds float64
	CommSeconds    float64
	// Iterations is the iteration count for one epoch of the dataset.
	Iterations int64
	// TotalSeconds is the full training (one-epoch) wall time.
	TotalSeconds float64
}

// CostUSD returns the rental cost of the measured run under a pricing
// scheme.
func (m Measurement) CostUSD(p cloud.Pricing) (float64, error) {
	hourly, err := m.Cfg.HourlyCost(p)
	if err != nil {
		return 0, err
	}
	return m.TotalSeconds / 3600 * hourly, nil
}

// Train measures training the graph on a configuration over one epoch
// of the dataset, sampling measureIters iterations to estimate the
// per-iteration mean. Per the paper's data-parallel setup, the per-GPU
// batch size is fixed (the graph's), so k GPUs cut the iteration count
// by k while each iteration pays the communication overhead
// S(GPU, k, params). The per-iteration mean is CommOverhead's mean plus
// MeanCompute's, each drawn from its own streams.
func Train(ctx context.Context, g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, measureIters int, seed uint64) (Measurement, error) {
	comm, err := CommOverhead(ctx, g, cfg, measureIters, seed)
	if err != nil {
		return Measurement{}, err
	}
	meanCompute, err := MeanCompute(ctx, g, cfg.GPU, measureIters, seed)
	if err != nil {
		return Measurement{}, err
	}

	iters := ds.Iterations(cfg.K, g.BatchSize)
	perIter := meanCompute + comm
	return Measurement{
		CNN:            g.Name,
		Cfg:            cfg,
		PerIterSeconds: perIter,
		ComputeSeconds: meanCompute,
		CommSeconds:    comm,
		Iterations:     iters,
		TotalSeconds:   perIter * float64(iters),
	}, nil
}

// CommOverhead draws Train's comm mean: the communication overhead
// S(GPU, k, params) per iteration of training g on cfg, averaged over
// measureIters iterations. It draws no node: its stream is derived
// from (seed, CNN, device, k) alone, so it equals Train's CommSeconds
// bit for bit. Train validates through it, and the context is checked
// between iterations.
func CommOverhead(ctx context.Context, g *graph.Graph, cfg cloud.Config, measureIters int, seed uint64) (float64, error) {
	if !cfg.Valid() {
		return 0, faults.Permanentf("sim: invalid config %s", cfg)
	}
	if measureIters <= 0 {
		return 0, faults.Permanentf("sim: measureIters must be positive, got %d", measureIters)
	}
	dev, ok := gpu.Lookup(cfg.GPU)
	if !ok {
		return 0, faults.Permanentf("sim: unknown GPU device %q", string(cfg.GPU))
	}
	commStream := rng.New(seed ^ hashString(g.Name)).Derive(0xC0111 ^ dev.SeedID<<16 ^ uint64(cfg.K))
	var comm float64
	for iter := 0; iter < measureIters; iter++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		s, err := cloud.SampleCommOverhead(cfg.GPU, cfg.K, g.Params, commStream)
		if err != nil {
			return 0, err
		}
		comm += s
	}
	return comm / float64(measureIters), nil
}

// MeanCompute draws Train's compute mean: the summed op time of g on
// device m per iteration, averaged over measureIters iterations. Its
// node streams are derived from (seed, CNN, device, node) alone, and
// the context is checked between blocks of nodes (see sampleNodes).
func MeanCompute(ctx context.Context, g *graph.Graph, m gpu.ID, measureIters int, seed uint64) (float64, error) {
	if measureIters <= 0 {
		return 0, faults.Permanentf("sim: measureIters must be positive, got %d", measureIters)
	}
	dev, ok := gpu.Lookup(m)
	if !ok {
		return 0, faults.Permanentf("sim: unknown GPU device %q", string(m))
	}
	totals, err := sampleNodes(ctx, seed, g, dev, measureIters, nil)
	if err != nil {
		return 0, err
	}
	var compute float64
	for _, t := range totals {
		compute += t
	}
	return compute / float64(measureIters), nil
}

package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/rng"
	"ceer/internal/tensor"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// oracleStreams derives each node's noise stream from (seed, CNN,
// device SeedID, node ID), the campaign's key.
func oracleStreams(seed uint64, g *graph.Graph, dev *gpu.Device) []*rng.Source {
	base := rng.New(seed ^ hashString(g.Name))
	streams := make([]*rng.Source, g.Len())
	for i, n := range g.Nodes() {
		streams[i] = base.Derive(dev.SeedID<<32 ^ uint64(n.ID))
	}
	return streams
}

// oracleProfile is Profile as one loop over iterations, each drawing
// every node once through dev.SampleTime, which evaluates BaseTime and
// Sigma again for every sample and draws one normal at a time. It is
// the reference the block sampler must reproduce bit for bit.
func oracleProfile(p *Profiler, g *graph.Graph, m gpu.ID) *trace.Profile {
	dev := gpu.MustLookup(m)
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
	streams := oracleStreams(p.Seed, g, dev)
	for i, n := range nodes {
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
			Agg:         trace.NewAgg(p.Retain),
		}
	}
	for iter := 0; iter < p.Iterations; iter++ {
		total := 0.0
		for i, n := range nodes {
			t := dev.SampleTime(n.Op, streams[i])
			prof.Series[i].Agg.Add(t)
			total += t
		}
		prof.IterTotal.Add(total)
	}
	return prof
}

// oracleTrain is Train with one loop drawing every node and the comm
// overhead per iteration through dev.SampleTime.
func oracleTrain(t *testing.T, g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, measureIters int, seed uint64) Measurement {
	t.Helper()
	dev := gpu.MustLookup(cfg.GPU)
	nodes := g.Nodes()
	streams := oracleStreams(seed, g, dev)
	commStream := rng.New(seed ^ hashString(g.Name)).Derive(0xC0111 ^ dev.SeedID<<16 ^ uint64(cfg.K))
	var compute, comm float64
	for iter := 0; iter < measureIters; iter++ {
		iterCompute := 0.0
		for i, n := range nodes {
			iterCompute += dev.SampleTime(n.Op, streams[i])
		}
		s, err := cloud.SampleCommOverhead(cfg.GPU, cfg.K, g.Params, commStream)
		if err != nil {
			t.Fatal(err)
		}
		compute += iterCompute
		comm += s
	}
	compute /= float64(measureIters)
	comm /= float64(measureIters)
	iters := ds.Iterations(cfg.K, g.BatchSize)
	perIter := compute + comm
	return Measurement{
		CNN:            g.Name,
		Cfg:            cfg,
		PerIterSeconds: perIter,
		ComputeSeconds: compute,
		CommSeconds:    comm,
		Iterations:     iters,
		TotalSeconds:   perIter * float64(iters),
	}
}

// sameBits reports whether two measurements agree bit for bit.
func sameBits(a, b Measurement) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.CNN == b.CNN && a.Cfg == b.Cfg && a.Iterations == b.Iterations &&
		eq(a.PerIterSeconds, b.PerIterSeconds) && eq(a.ComputeSeconds, b.ComputeSeconds) &&
		eq(a.CommSeconds, b.CommSeconds) && eq(a.TotalSeconds, b.TotalSeconds)
}

// tinyGraph is a five-node chain, fewer nodes than one sampler block,
// mixing CPU and light GPU ops.
func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("tiny", 4)
	in := tensor.F32(4, 8, 8, 16)
	prev, err := g.Add("input", &ops.Op{Type: ops.IteratorGetNext, Output: in}, graph.ForwardPhase)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if prev, err = g.Add("relu", &ops.Op{Type: ops.Relu, Inputs: []tensor.Spec{in}, Output: in}, graph.ForwardPhase, prev); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// checkSampler compares one Profile and one Train at p's depth against
// the oracles: the profile deep-equal (every Agg, retained samples
// included), the measurement bit for bit.
func checkSampler(t *testing.T, p *Profiler, g *graph.Graph, m gpu.ID) {
	t.Helper()
	ctx := context.Background()
	got, err := p.Profile(ctx, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, oracleProfile(p, g, m)) {
		t.Errorf("%s/%s %+v: Profile differs from the per-sample oracle", g.Name, m, *p)
	}
	cfg := cloud.Config{GPU: m, K: 1}
	ds := dataset.ImageNetSubset6400
	meas, err := Train(ctx, g, cfg, ds, p.Iterations, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleTrain(t, g, cfg, ds, p.Iterations, p.Seed); !sameBits(meas, want) {
		t.Errorf("%s/%s %d iterations seed %d: Train = %+v, oracle %+v", g.Name, m, p.Iterations, p.Seed, meas, want)
	}
}

// TestSamplerMatchesOracle checks that the block sampler changes no
// sample: Profile deep-equals the per-sample oracle and Train's
// measurement is bit-equal to it, over every registered device. The
// graphs have 5, 97, 792 and 667 nodes: less than one block, and 1, 0
// and 3 nodes past a whole number of blocks. The first two run 1, 2, 9
// and 200 iterations (odd ones leave a normal pending in each stream),
// each with no reservoir, a partial one, the pipeline's 64 and one
// larger than the iteration count; all four run 9 iterations at three
// seeds. CommOverhead, which the campaign's
// comm stage draws alone, equals Train's CommSeconds bit for bit, and
// ComputeSeconds is bit-identical at every k.
func TestSamplerMatchesOracle(t *testing.T) {
	ctx := context.Background()
	ds := dataset.ImageNetSubset6400
	graphs := []*graph.Graph{tinyGraph(t)}
	for _, name := range []string{"alexnet", "inception-v1", "resnet-50"} {
		g, err := zoo.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs[:2] {
		for _, iters := range []int{1, 2, 9, 200} {
			for _, retain := range []int{0, 5, 64, iters + 1} {
				for _, m := range gpu.All() {
					checkSampler(t, &Profiler{Seed: 3, Iterations: iters, Retain: retain}, g, m)
				}
			}
		}
	}
	for _, g := range graphs {
		name := g.Name
		for _, m := range gpu.All() {
			for _, seed := range []uint64{1, 7, 1 << 40} {
				checkSampler(t, &Profiler{Seed: seed, Iterations: 9, Retain: 5}, g, m)

				var compute0 float64
				for k := 1; k <= 4; k++ {
					cfg := cloud.Config{GPU: m, K: k}
					meas, err := Train(ctx, g, cfg, ds, 6, seed)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracleTrain(t, g, cfg, ds, 6, seed); !sameBits(meas, want) {
						t.Errorf("%s/%s k=%d seed %d: Train = %+v, oracle %+v", name, m, k, seed, meas, want)
					}
					comm, err := CommOverhead(ctx, g, cfg, 6, seed)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(comm) != math.Float64bits(meas.CommSeconds) {
						t.Errorf("%s/%s k=%d seed %d: CommOverhead = %v, Train's CommSeconds %v",
							name, m, k, seed, comm, meas.CommSeconds)
					}
					if k == 1 {
						compute0 = meas.ComputeSeconds
					} else if math.Float64bits(meas.ComputeSeconds) != math.Float64bits(compute0) {
						t.Errorf("%s/%s seed %d: ComputeSeconds at k=%d is %v, at k=1 %v",
							name, m, seed, k, meas.ComputeSeconds, compute0)
					}
				}
			}
		}
	}
}

// TestDrawNodeMatchesLogNormalFactor checks the sampler's per-node draw
// against base × LogNormalFactor(sigma), by bits, for every sigma
// branch: a sigma <= 0 fills the row with base and leaves the stream
// untouched, as LogNormalFactor draws nothing; a NaN sigma still draws.
func TestDrawNodeMatchesLogNormalFactor(t *testing.T) {
	const base = 2.5e-4
	for _, sigma := range []float64{0.05, 0.4, 0, math.Copysign(0, -1), -0.3, math.Inf(-1), math.NaN(), math.Inf(1)} {
		for _, n := range []int{0, 1, 2, 7} {
			src, want := rng.New(11), rng.New(11)
			src.Normal() // leave a spare pending
			want.Normal()
			row := make([]float64, n)
			drawNode(row, base, sigma, src)
			for i, got := range row {
				w := base * want.LogNormalFactor(sigma)
				if math.Float64bits(got) != math.Float64bits(w) {
					t.Errorf("sigma %v, %d samples: sample %d = %v, want %v", sigma, n, i, got, w)
				}
			}
			if *src != *want {
				t.Errorf("sigma %v, %d samples: stream state %+v, want %+v", sigma, n, *src, *want)
			}
		}
	}
}

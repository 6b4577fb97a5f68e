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
	"ceer/internal/rng"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// oracleProfile is Profile with the cost model left inside the loop:
// dev.SampleTime evaluates BaseTime and Sigma again for every sample.
// It is the reference the hoisted sampler must reproduce bit for bit.
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
	streams := make([]*rng.Source, len(nodes))
	for i, n := range nodes {
		streams[i] = p.streamFor(g.Name, dev, n.ID)
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
	base := rng.New(seed ^ hashString(g.Name))
	streams := make([]*rng.Source, len(nodes))
	for i, n := range nodes {
		streams[i] = base.Derive(dev.SeedID<<32 ^ uint64(n.ID))
	}
	commStream := base.Derive(0xC0111 ^ dev.SeedID<<16 ^ uint64(cfg.K))
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

// TestSamplerMatchesOracle checks that evaluating each node's cost once
// per (graph, device) changes no sample: Profile deep-equals the
// per-sample oracle (every Agg, retained samples included) and Train's
// measurement is bit-equal to it, over several CNNs, every registered
// device and several seeds. CommOverhead, which the campaign's comm
// stage draws alone, equals Train's CommSeconds bit for bit, and
// ComputeSeconds is bit-identical at every k.
func TestSamplerMatchesOracle(t *testing.T) {
	ctx := context.Background()
	ds := dataset.ImageNetSubset6400
	for _, name := range []string{"alexnet", "inception-v1", "resnet-50"} {
		g, err := zoo.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range gpu.All() {
			for _, seed := range []uint64{1, 7, 1 << 40} {
				p := &Profiler{Seed: seed, Iterations: 9, Retain: 5}
				got, err := p.Profile(ctx, g, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, oracleProfile(p, g, m)) {
					t.Errorf("%s/%s seed %d: Profile differs from the per-sample oracle", name, m, seed)
				}

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

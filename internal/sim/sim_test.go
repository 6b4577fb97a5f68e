package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/zoo"
)

func smallNet(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := zoo.Build("inception-v1", 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProfileBasics(t *testing.T) {
	g := smallNet(t)
	p := &Profiler{Seed: 1, Iterations: 20, Retain: 8}
	prof, err := p.Profile(context.Background(), g, gpu.T4)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prof.Series) != g.Len() {
		t.Errorf("series count %d != node count %d", len(prof.Series), g.Len())
	}
	if prof.Params != g.Params || prof.BatchSize != 8 {
		t.Error("profile metadata wrong")
	}
	if prof.MeanIterSeconds() <= 0 {
		t.Error("iteration total should be positive")
	}
	// Per-iteration total must equal the sum of node means (within noise
	// bookkeeping, they are the same numbers).
	sum := 0.0
	for _, s := range prof.Series {
		sum += s.Agg.Mean()
	}
	if math.Abs(sum-prof.MeanIterSeconds())/sum > 1e-9 {
		t.Errorf("sum of node means %v != iter total %v", sum, prof.MeanIterSeconds())
	}
}

func TestProfileDeterministic(t *testing.T) {
	g := smallNet(t)
	p := &Profiler{Seed: 7, Iterations: 10, Retain: 4}
	a, err := p.Profile(context.Background(), g, gpu.V100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Profile(context.Background(), g, gpu.V100)
	if err != nil {
		t.Fatal(err)
	}
	if !eqExact(a.MeanIterSeconds(), b.MeanIterSeconds()) {
		t.Error("same seed should reproduce identical profiles")
	}
	p2 := &Profiler{Seed: 8, Iterations: 10, Retain: 4}
	c, err := p2.Profile(context.Background(), g, gpu.V100)
	if err != nil {
		t.Fatal(err)
	}
	if eqExact(a.MeanIterSeconds(), c.MeanIterSeconds()) {
		t.Error("different seeds should differ")
	}
}

func TestProfileErrors(t *testing.T) {
	g := smallNet(t)
	if _, err := (&Profiler{Seed: 1, Iterations: 0}).Profile(context.Background(), g, gpu.T4); err == nil {
		t.Error("zero iterations should error")
	}
	if _, err := (&Profiler{Seed: 1, Iterations: 5}).Profile(context.Background(), g, gpu.ID("no-such-device")); err == nil {
		t.Error("unknown GPU should error")
	}
	// A cancellation before the first block of nodes, or one that lands
	// mid-graph, ends both samplers with the context's error.
	for _, checks := range []int{0, 50} {
		_, err := (&Profiler{Seed: 1, Iterations: 5}).Profile(&cancelAfter{context.Background(), checks}, g, gpu.T4)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Profile cancelled after %d checks: error %v, want context.Canceled", checks, err)
		}
		_, err = MeanCompute(&cancelAfter{context.Background(), checks}, g, gpu.T4, 5, 1)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("MeanCompute cancelled after %d checks: error %v, want context.Canceled", checks, err)
		}
	}
}

// cancelAfter is a context that is cancelled once Err has been checked
// n times.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestProfileAll(t *testing.T) {
	p := &Profiler{Seed: 3, Iterations: 5, Retain: 4}
	b, err := p.ProfileAll(context.Background(), zoo.Build, []string{"alexnet", "inception-v1"}, 4,
		[]gpu.ID{gpu.V100, gpu.K80})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Profiles) != 4 {
		t.Errorf("bundle has %d profiles, want 4", len(b.Profiles))
	}
	if _, err := p.ProfileAll(context.Background(), zoo.Build, []string{"nope"}, 4, []gpu.ID{gpu.V100}); err == nil {
		t.Error("unknown CNN should error")
	}
}

func TestHeavyOpsDominate(t *testing.T) {
	// Paper: heavy ops contribute 47%–94% of training time; light < 7%.
	p := &Profiler{Seed: 5, Iterations: 10, Retain: 4}
	for _, name := range []string{"inception-v1", "resnet-50", "vgg-16"} {
		g, err := zoo.Build(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := p.Profile(context.Background(), g, gpu.K80)
		if err != nil {
			t.Fatal(err)
		}
		share := prof.ClassShare()
		if share[ops.HeavyGPU] < 0.47 {
			t.Errorf("%s heavy share = %.2f, want >= 0.47", name, share[ops.HeavyGPU])
		}
		if share[ops.LightGPU] > 0.10 {
			t.Errorf("%s light share = %.2f, want <= 0.10", name, share[ops.LightGPU])
		}
	}
}

func TestTrainMeasurement(t *testing.T) {
	g := smallNet(t)
	ds := dataset.Dataset{Name: "d", Samples: 6400}
	m, err := Train(context.Background(), g, cloud.Config{GPU: gpu.T4, K: 1}, ds, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 6400/8 {
		t.Errorf("iterations = %d, want %d", m.Iterations, 6400/8)
	}
	if m.PerIterSeconds <= 0 || m.TotalSeconds <= 0 {
		t.Error("non-positive times")
	}
	if math.Abs(m.PerIterSeconds-(m.ComputeSeconds+m.CommSeconds)) > 1e-12 {
		t.Error("per-iteration decomposition inconsistent")
	}
	cost, err := m.CostUSD(cloud.OnDemand)
	if err != nil || cost <= 0 {
		t.Errorf("cost = %v, %v", cost, err)
	}
	wantCost := m.TotalSeconds / 3600 * 0.752
	if math.Abs(cost-wantCost) > 1e-9 {
		t.Errorf("cost = %v, want %v", cost, wantCost)
	}
}

func TestTrainMultiGPUScaling(t *testing.T) {
	// More GPUs: fewer iterations, lower total time, but diminishing
	// returns (paper Fig. 6). Uses the paper's batch size of 32; at tiny
	// batch sizes data parallelism genuinely saturates.
	g, err := zoo.Build("inception-v1", 32)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Dataset{Name: "d", Samples: 64000}
	var totals []float64
	for k := 1; k <= 4; k++ {
		m, err := Train(context.Background(), g, cloud.Config{GPU: gpu.T4, K: k}, ds, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, m.TotalSeconds)
	}
	for k := 1; k < 4; k++ {
		if totals[k] >= totals[k-1] {
			t.Errorf("total time not decreasing at k=%d: %v", k+1, totals)
		}
	}
	// Speedup at 4 GPUs must be sub-linear.
	if speedup := totals[0] / totals[3]; speedup >= 4 {
		t.Errorf("4-GPU speedup %.2f should be sub-linear", speedup)
	}
}

// TestTrainErrors: Train and CommOverhead fail alike, with the same
// error, on an invalid config, zero measureIters, an unknown device and
// a cancelled context; the configuration errors are permanent.
func TestTrainErrors(t *testing.T) {
	g := smallNet(t)
	ds := dataset.Dataset{Name: "d", Samples: 100}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		cfg       cloud.Config
		iters     int
		permanent bool
	}{
		{"invalid config", context.Background(), cloud.Config{GPU: gpu.T4, K: 0}, 5, true},
		{"zero measureIters", context.Background(), cloud.Config{GPU: gpu.T4, K: 1}, 0, true},
		{"unknown device", context.Background(), cloud.Config{GPU: "tpu-v9", K: 1}, 5, true},
		{"cancelled context", cancelled, cloud.Config{GPU: gpu.T4, K: 1}, 5, false},
	} {
		_, trainErr := Train(tc.ctx, g, tc.cfg, ds, tc.iters, 1)
		_, commErr := CommOverhead(tc.ctx, g, tc.cfg, tc.iters, 1)
		switch {
		case trainErr == nil || commErr == nil:
			t.Errorf("%s: Train error %v, CommOverhead error %v; want both to fail", tc.name, trainErr, commErr)
		case trainErr.Error() != commErr.Error():
			t.Errorf("%s: Train error %q, CommOverhead error %q", tc.name, trainErr, commErr)
		case faults.IsPermanent(trainErr) != tc.permanent || faults.IsPermanent(commErr) != tc.permanent:
			t.Errorf("%s: permanent = %v, %v; want %v", tc.name,
				faults.IsPermanent(trainErr), faults.IsPermanent(commErr), tc.permanent)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	g := smallNet(t)
	ds := dataset.Dataset{Name: "d", Samples: 1000}
	a, _ := Train(context.Background(), g, cloud.Config{GPU: gpu.M60, K: 2}, ds, 5, 9) // valid config; determinism, not errors, is under test
	b, _ := Train(context.Background(), g, cloud.Config{GPU: gpu.M60, K: 2}, ds, 5, 9) // valid config; determinism, not errors, is under test
	if !eqExact(a.TotalSeconds, b.TotalSeconds) {
		t.Error("Train not deterministic for fixed seed")
	}
}

func TestGPUSpeedOrderingEndToEnd(t *testing.T) {
	// P3 must beat G4, G3, P2 end to end on a real model (Fig. 8).
	g := smallNet(t)
	ds := dataset.Dataset{Name: "d", Samples: 3200}
	times := map[gpu.ID]float64{}
	for _, m := range gpu.All() {
		r, err := Train(context.Background(), g, cloud.Config{GPU: m, K: 1}, ds, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		times[m] = r.TotalSeconds
	}
	if !(times[gpu.V100] < times[gpu.T4] && times[gpu.T4] < times[gpu.M60] && times[gpu.M60] < times[gpu.K80]) {
		t.Errorf("end-to-end ordering violated: %v", times)
	}
}

func TestMeasurementArithmetic(t *testing.T) {
	g := smallNet(t)
	ds := dataset.Dataset{Name: "d", Samples: 3200}
	m, err := Train(context.Background(), g, cloud.Config{GPU: gpu.V100, K: 2}, ds, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PerIterSeconds * float64(m.Iterations); math.Abs(got-m.TotalSeconds) > 1e-9 {
		t.Errorf("TotalSeconds %v != perIter*iters %v", m.TotalSeconds, got)
	}
	if m.Iterations != ds.Iterations(2, g.BatchSize) {
		t.Errorf("iterations = %d", m.Iterations)
	}
}

func TestCommGrowsWithKComputeDoesNot(t *testing.T) {
	g := smallNet(t)
	ds := dataset.Dataset{Name: "d", Samples: 3200}
	var prevComm float64
	var computes []float64
	for k := 1; k <= 4; k++ {
		m, err := Train(context.Background(), g, cloud.Config{GPU: gpu.T4, K: k}, ds, 12, 9)
		if err != nil {
			t.Fatal(err)
		}
		if m.CommSeconds <= prevComm {
			t.Errorf("comm not increasing at k=%d", k)
		}
		prevComm = m.CommSeconds
		computes = append(computes, m.ComputeSeconds)
	}
	// Per-GPU compute is k-independent (same replica, same batch).
	for i := 1; i < len(computes); i++ {
		if math.Abs(computes[i]-computes[0])/computes[0] > 0.05 {
			t.Errorf("per-GPU compute drifted with k: %v", computes)
		}
	}
}

func TestCostUSDPropagatesPricingErrors(t *testing.T) {
	m := Measurement{Cfg: cloud.Config{GPU: gpu.V100, K: 99}, TotalSeconds: 10}
	if _, err := m.CostUSD(cloud.OnDemand); err == nil {
		t.Error("invalid config should fail pricing")
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: a fixed seed must reproduce bit-identical
// results.
func eqExact(a, b float64) bool { return a == b }

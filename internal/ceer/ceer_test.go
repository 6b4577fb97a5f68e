package ceer

import (
	"context"
	"math"
	"sync"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/sim"
	"ceer/internal/stats"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

var (
	trainedOnce sync.Once
	trained     *Predictor
	trainBundle *trace.Bundle
	trainErr    error
)

// predictor trains Ceer once (on the 8 training CNNs) and caches it for
// every test in the package.
func predictor(t *testing.T) (*Predictor, *trace.Bundle) {
	t.Helper()
	trainedOnce.Do(func() {
		pl := DefaultPipeline(11)
		pl.ProfileIterations = 60
		pl.CommIterations = 12
		var res *CampaignResult
		trained, res, trainErr = pl.TrainOn(context.Background(), zoo.Build, zoo.TrainingSet())
		if trainErr == nil {
			trainBundle = res.Bundle
		}
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trained, trainBundle
}

// compileFor compiles p over the given graphs, failing the test on
// error — the one prediction path every test reads from.
func compileFor(t testing.TB, p *Predictor, graphs ...*graph.Graph) *CompiledPredictor {
	t.Helper()
	c, err := Compile(p, graphs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassificationMatchesPaper(t *testing.T) {
	p, _ := predictor(t)
	heavy := p.Class.HeavyTypes()
	if len(heavy) != 20 {
		t.Errorf("derived %d heavy op types, want 20 (Fig. 2): %v", len(heavy), heavy)
	}
	for _, h := range heavy {
		if ops.MustLookup(h).Class != ops.HeavyGPU {
			t.Errorf("empirically heavy op %s is not catalog-heavy", h)
		}
	}
	// Known members called out in the paper.
	for _, want := range []ops.Type{ops.Conv2D, ops.Conv2DBackpropFilter, ops.MaxPoolGrad,
		ops.AvgPool, ops.FusedBatchNormGradV3, ops.Relu, ops.BiasAdd, ops.AddV2} {
		if !p.Class.Heavy[want] {
			t.Errorf("op %s should classify heavy", want)
		}
	}
	if p.Class.Heavy[ops.ApplyMomentum] || p.Class.Heavy[ops.Identity] {
		t.Error("optimizer/identity ops should not classify heavy")
	}
	if !p.Class.CPUOps[ops.IteratorGetNext] || !p.Class.CPUOps[ops.SparseToDense] {
		t.Error("host ops should classify CPU")
	}
}

func TestClassificationFallbacks(t *testing.T) {
	p, _ := predictor(t)
	// Pad never appears in the zoo graphs: unseen. Falls back by catalog.
	if p.Class.Observed(ops.Pad) {
		t.Skip("Pad unexpectedly observed; fallback path not exercised")
	}
	if got := p.Class.Of(ops.Pad); got != ops.LightGPU {
		t.Errorf("unseen light op class = %v", got)
	}
	if got := p.Class.Of(ops.NoOp); got != ops.CPU {
		t.Errorf("unseen CPU op class = %v", got)
	}
}

func TestMedianEstimators(t *testing.T) {
	p, _ := predictor(t)
	if p.LightMedian <= 0 || p.CPUMedian <= 0 {
		t.Fatalf("medians must be positive: light=%v cpu=%v", p.LightMedian, p.CPUMedian)
	}
	if p.LightMedian >= HeavyThresholdSeconds {
		t.Errorf("light median %v should sit below the heavy threshold", p.LightMedian)
	}
	if p.CPUMedian <= p.LightMedian {
		t.Errorf("CPU median %v should exceed light median %v here", p.CPUMedian, p.LightMedian)
	}
}

func TestHeavyOpModelQuality(t *testing.T) {
	// Section IV-B: training R² 0.84–0.98 across operations; per-op test
	// MAPE 2%–10%.
	p, _ := predictor(t)
	models := p.OpModels()
	if len(models) != 20*4 {
		t.Errorf("trained %d op models, want 80 (20 types × 4 GPUs)", len(models))
	}
	lowR2 := 0
	for _, om := range models {
		if om.Fit.R2 < 0.80 {
			lowR2++
			t.Logf("low R² %.3f for %s on %s (n=%d, degree %d)",
				om.Fit.R2, om.OpType, om.GPU.Family(), om.TrainObs, om.Fit.Degree)
		}
	}
	if lowR2 > 8 {
		t.Errorf("%d/80 op models have R² < 0.80; paper reports 0.84–0.98", lowR2)
	}

	// Held-out evaluation on the test CNNs.
	prof := &sim.Profiler{Seed: 99, Iterations: 40, Retain: 8}
	testBundle, err := prof.ProfileAll(context.Background(), zoo.Build, zoo.TestSet(), 32, gpu.All())
	if err != nil {
		t.Fatal(err)
	}
	evals := p.EvaluateOpModels(testBundle)
	if len(evals) == 0 {
		t.Fatal("no op-model evaluations")
	}
	var mapes []float64
	for _, e := range evals {
		mapes = append(mapes, e.TestMAPE)
	}
	if med := stats.Median(mapes); med > 0.10 {
		t.Errorf("median per-op test MAPE = %.1f%%, paper band is 2–10%%", med*100)
	}
	if frac := float64(countBelow(mapes, 0.15)) / float64(len(mapes)); frac < 0.8 {
		t.Errorf("only %.0f%% of op models have test MAPE < 15%%", frac*100)
	}
}

func countBelow(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x < limit {
			n++
		}
	}
	return n
}

func TestQuadraticSelectedForBackpropFilter(t *testing.T) {
	// Section IV-B: Conv2DBackpropFilter needs a quadratic fit.
	p, _ := predictor(t)
	quadCount := 0
	for _, m := range gpu.All() {
		om, ok := p.OpModelFor(m, ops.Conv2DBackpropFilter)
		if !ok {
			t.Fatalf("no Conv2DBackpropFilter model for %s", m.Family())
		}
		if om.Fit.Degree == 2 {
			quadCount++
		}
	}
	if quadCount < 3 {
		t.Errorf("quadratic chosen for Conv2DBackpropFilter on %d/4 GPUs, want >= 3", quadCount)
	}
	// Most pure memory-bound ops should stay linear.
	linCount := 0
	for _, m := range gpu.All() {
		if om, ok := p.OpModelFor(m, ops.Relu); ok && om.Fit.Degree == 1 {
			linCount++
		}
	}
	if linCount < 3 {
		t.Errorf("linear chosen for Relu on %d/4 GPUs, want >= 3", linCount)
	}
}

func TestCommModelQuality(t *testing.T) {
	// Section IV-C: R² 0.88–0.98 for the comm regressions.
	p, _ := predictor(t)
	for _, m := range gpu.All() {
		for k := 1; k <= 4; k++ {
			cm, ok := p.CommModelFor(m, k)
			if !ok {
				t.Fatalf("missing comm model %s k=%d", m.Family(), k)
			}
			if cm.Fit.R2 < 0.85 {
				t.Errorf("comm model %s k=%d R² = %.3f, want >= 0.85", m.Family(), k, cm.Fit.R2)
			}
		}
	}
	// Overhead grows with params and with k.
	s2a, err := p.PredictComm(gpu.T4, 2, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s2b, _ := p.PredictComm(gpu.T4, 2, 100_000_000) // same shape as the checked call above
	s4a, _ := p.PredictComm(gpu.T4, 4, 10_000_000)  // same shape as the checked call above
	if s2b <= s2a || s4a <= s2a {
		t.Errorf("comm predictions not monotone: %v %v %v", s2a, s2b, s4a)
	}
	if _, err := p.PredictComm(gpu.T4, 7, 1000); err == nil {
		t.Error("untrained k should error")
	}
}

func TestEndToEndPredictionAccuracy(t *testing.T) {
	// The paper's validation: ~4.2% average test-set prediction error;
	// Figure 8 reports 5.4% on 4-GPU instances. Allow a conservative
	// band: mean < 10%, max < 25%.
	p, _ := predictor(t)
	ds := dataset.ImageNetSubset6400
	var errs []float64
	for _, name := range zoo.TestSet() {
		g := zoo.MustBuild(name, 32)
		c := compileFor(t, p, g)
		for _, m := range gpu.All() {
			for _, k := range []int{1, 4} {
				cfg := cloud.Config{GPU: m, K: k}
				obs, err := sim.Train(context.Background(), g, cfg, ds, 25, 555)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := c.PredictTraining(g, cfg, ds, cloud.OnDemand)
				if err != nil {
					t.Fatal(err)
				}
				e := math.Abs(stats.RelErr(obs.TotalSeconds, pred.TotalSeconds))
				errs = append(errs, e)
				if e > 0.25 {
					t.Errorf("%s on %s: prediction error %.1f%% (obs %.1fs pred %.1fs)",
						name, cfg, e*100, obs.TotalSeconds, pred.TotalSeconds)
				}
			}
		}
	}
	if mean := stats.Mean(errs); mean > 0.10 {
		t.Errorf("mean test-set prediction error = %.1f%%, want < 10%% (paper: ~4-6%%)", mean*100)
	}
}

func TestPredictedRankingMatchesObserved(t *testing.T) {
	// Figure 8: the predicted training-time ranking across GPU models
	// must match the observed ranking for every test CNN (4-GPU case).
	p, _ := predictor(t)
	ds := dataset.ImageNetSubset6400
	for _, name := range zoo.TestSet() {
		g := zoo.MustBuild(name, 32)
		c := compileFor(t, p, g)
		type pair struct {
			obs, pred float64
		}
		vals := map[gpu.ID]pair{}
		for _, m := range gpu.All() {
			cfg := cloud.Config{GPU: m, K: 4}
			obs, err := sim.Train(context.Background(), g, cfg, ds, 20, 777)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := c.PredictTraining(g, cfg, ds, cloud.OnDemand)
			if err != nil {
				t.Fatal(err)
			}
			vals[m] = pair{obs.TotalSeconds, pred.TotalSeconds}
		}
		for _, a := range gpu.All() {
			for _, b := range gpu.All() {
				if (vals[a].obs < vals[b].obs) != (vals[a].pred < vals[b].pred) {
					t.Errorf("%s: ranking mismatch between %s and %s", name, a.Family(), b.Family())
				}
			}
		}
	}
}

func TestAblations(t *testing.T) {
	// Section IV: ignoring comm costs accuracy (up to ~30% for AlexNet);
	// ignoring light+CPU ops costs accuracy as well.
	p, _ := predictor(t)
	ds := dataset.ImageNetSubset6400
	g := zoo.MustBuild("alexnet", 32)
	c := compileFor(t, p, g)
	cfg := cloud.Config{GPU: gpu.V100, K: 1}
	obs, err := sim.Train(context.Background(), g, cfg, ds, 25, 31)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.PredictTrainingVariant(g, cfg, ds, cloud.OnDemand, Full)
	if err != nil {
		t.Fatal(err)
	}
	noComm, err := c.PredictTrainingVariant(g, cfg, ds, cloud.OnDemand, NoComm)
	if err != nil {
		t.Fatal(err)
	}
	fullErr := math.Abs(stats.RelErr(obs.TotalSeconds, full.TotalSeconds))
	noCommErr := math.Abs(stats.RelErr(obs.TotalSeconds, noComm.TotalSeconds))
	// The paper reports ~30%% for AlexNet; in this reproduction the
	// communication calibration that preserves Figs. 6 and 10 puts
	// AlexNet's single-GPU communication share near 6-12%% (see
	// EXPERIMENTS.md), so the ablation penalty is smaller but must still
	// be clearly visible and clearly worse than the full model.
	if noCommErr < 0.04 {
		t.Errorf("AlexNet no-comm error = %.1f%%, want >= 4%%", noCommErr*100)
	}
	if fullErr > noCommErr {
		t.Errorf("full model error %.1f%% should be below no-comm %.1f%%", fullErr*100, noCommErr*100)
	}

	// Heavy-only must underestimate vs full (dropping positive terms).
	heavyOnly, err := c.PredictTrainingVariant(g, cfg, ds, cloud.OnDemand, HeavyOnly)
	if err != nil {
		t.Fatal(err)
	}
	if heavyOnly.TotalSeconds >= full.TotalSeconds {
		t.Error("heavy-only prediction should be below full prediction")
	}
}

func TestVariantString(t *testing.T) {
	if Full.String() != "full" || NoComm.String() != "no-comm" ||
		HeavyOnly.String() != "heavy-only" || HeavyOnlyNoComm.String() != "heavy-only-no-comm" {
		t.Error("variant labels wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should render")
	}
}

func TestRecommendCostMinimization(t *testing.T) {
	// Figure 11: minimizing cost for Inception-v3 picks the 1-GPU G4.
	p, _ := predictor(t)
	g := zoo.MustBuild("inception-v3", 32)
	rec, err := compileFor(t, p, g).Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Cfg.GPU != gpu.T4 || rec.Best.Cfg.K != 1 {
		t.Errorf("cost-min recommendation = %s, paper says 1xG4", rec.Best.Cfg)
	}
	if len(rec.Candidates) != 16 {
		t.Errorf("evaluated %d candidates, want 16", len(rec.Candidates))
	}
}

func TestRecommendMarketPrices(t *testing.T) {
	// Figure 12: with market-ratio prices the 1-GPU P2 wins.
	p, _ := predictor(t)
	g := zoo.MustBuild("inception-v3", 32)
	rec, err := compileFor(t, p, g).Recommend(g, dataset.ImageNet, cloud.MarketRatio, cloud.Configs(4), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Cfg.GPU != gpu.K80 || rec.Best.Cfg.K != 1 {
		t.Errorf("market cost-min recommendation = %s, paper says 1xP2", rec.Best.Cfg)
	}
}

func TestRecommendConstraints(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("resnet-101", 32)
	comp := compileFor(t, p, g)
	// Impossible budget: no feasible candidate.
	_, err := comp.Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4),
		MinimizeTime, MaxTotalBudget(0.01))
	if err == nil {
		t.Error("impossible budget should error")
	}
	// Hourly budget with slack admits the $3.06 P3 at $3 + 6¢ slack.
	rec, err := comp.Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4),
		MinimizeTime, MaxHourlyBudget(3.0, 0.42))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Candidates {
		if c.Feasible && c.HourlyUSD > 3.42 {
			t.Errorf("feasible candidate %s exceeds budget at $%.2f/hr", c.Cfg, c.HourlyUSD)
		}
	}
	if _, err := comp.Recommend(g, dataset.ImageNet, cloud.OnDemand, nil, MinimizeTime); err == nil {
		t.Error("empty candidate set should error")
	}
}

func TestObjectives(t *testing.T) {
	if !eqExact(MinimizeTime(5, 100), 5) || !eqExact(MinimizeCost(5, 100), 100) {
		t.Error("basic objectives wrong")
	}
	obj := WeightedObjective(0.5, 10, 20)
	if got := obj(10, 20); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("weighted objective = %v, want 1.0", got)
	}
}

func TestUnseenHeavyOpWarning(t *testing.T) {
	// Train a predictor WITHOUT the inception models: ConcatV2 (heavy)
	// then never appears in training, and predictions for inception-v3
	// must carry an unseen-heavy warning.
	pl := DefaultPipeline(13)
	pl.ProfileIterations = 20
	pl.CommIterations = 5
	subset := []string{"vgg-11", "resnet-50", "alexnet"}
	p, _, err := pl.TrainOn(context.Background(), zoo.Build, subset)
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.MustBuild("inception-v3", 32)
	iter, err := compileFor(t, p, g).PredictIteration(g, gpu.V100, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range iter.UnseenHeavy {
		if u == ops.ConcatV2 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected ConcatV2 in unseen-heavy warnings, got %v", iter.UnseenHeavy)
	}
}

func TestPredictTrainingInvalidConfig(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	if _, err := compileFor(t, p, g).PredictTraining(g, cloud.Config{GPU: gpu.V100, K: 0}, dataset.ImageNet, cloud.OnDemand); err == nil {
		t.Error("invalid config should error")
	}
}

func TestFitsGPUMemoryConstraint(t *testing.T) {
	p, _ := predictor(t)
	// VGG-19 at batch 64 needs well over 8 GB: every M60 (G3, 8 GB)
	// configuration must be rejected while 16 GB GPUs survive.
	g := zoo.MustBuild("vgg-19", 64)
	needGB := g.EstimateMemory().TotalGB()
	if needGB < 8 || needGB > 16 {
		t.Fatalf("vgg-19@64 estimate = %.1f GB, expected between 8 and 16", needGB)
	}
	rec, err := compileFor(t, p, g).Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4),
		MinimizeCost, FitsGPUMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Candidates {
		isG3orP2 := c.Cfg.GPU == gpu.M60 || c.Cfg.GPU == gpu.K80
		if c.Feasible && isG3orP2 {
			t.Errorf("%s should be memory-infeasible for vgg-19@64", c.Cfg)
		}
		if !c.Feasible && (c.Cfg.GPU == gpu.V100 || c.Cfg.GPU == gpu.T4) {
			t.Errorf("%s (16 GB) should fit vgg-19@64", c.Cfg)
		}
	}
	// At batch 32, everything fits.
	g32 := zoo.MustBuild("vgg-19", 32)
	rec32, err := compileFor(t, p, g32).Recommend(g32, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4),
		MinimizeCost, FitsGPUMemory(g32))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec32.Candidates {
		if !c.Feasible {
			t.Errorf("%s should fit vgg-19@32", c.Cfg)
		}
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: the objectives pass their inputs through
// verbatim and persistence must round-trip bit-for-bit.
func eqExact(a, b float64) bool { return a == b }

package experiments

import (
	"context"

	"fmt"
	"strings"
	"sync"
	"testing"

	"ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/gpu"
	"ceer/internal/ops"
)

var (
	ctxOnce sync.Once
	ctx     *Context
	ctxErr  error
)

func testContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctx, ctxErr = NewContext(context.Background(), Options{Seed: 21, ProfileIterations: 60, MeasureIters: 12})
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctx
}

func TestFig01(t *testing.T) {
	r, err := Fig01(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes < 500 {
		t.Errorf("Inception-v3 DAG has %d nodes, suspiciously few", r.Nodes)
	}
	if !strings.Contains(r.DOT, "digraph") || !strings.Contains(r.DOT, "Conv2D") {
		t.Error("DOT output malformed")
	}
	if r.UniqueTypes < 15 || r.UniqueTypes > 45 {
		t.Errorf("unique op types = %d, expected a small vocabulary", r.UniqueTypes)
	}
	if s := r.Table().String(); !strings.Contains(s, "Fig. 1") {
		t.Error("table render broken")
	}
}

func TestFig02Claims(t *testing.T) {
	r, err := Fig02(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 20 {
		t.Errorf("Fig. 2 has %d heavy ops, want 20", len(r.Rows))
	}
	// Paper: P3 ~10× vs P2, ~4× vs G4, P2 ~1.5× vs G3.
	if v := r.AvgRatioVsP3[gpu.K80]; v < 8 || v > 12.5 {
		t.Errorf("P2/P3 ratio = %.1f, want ~10", v)
	}
	if v := r.AvgRatioVsP3[gpu.T4]; v < 3 || v > 5.5 {
		t.Errorf("G4/P3 ratio = %.1f, want ~4", v)
	}
	if v := r.AvgRatioVsP3[gpu.K80] / r.AvgRatioVsP3[gpu.M60]; v < 1.2 || v > 1.9 {
		t.Errorf("P2/G3 ratio = %.2f, want ~1.5", v)
	}
	// Per-op ordering: P3 fastest everywhere, P2 slowest almost always.
	for _, row := range r.Rows {
		if row.Seconds[gpu.V100] >= row.Seconds[gpu.T4] {
			t.Errorf("%s: P3 not fastest", row.OpType)
		}
	}
}

func TestFig03Claims(t *testing.T) {
	r, err := Fig03(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: G4 cheapest for 16/20, P3 for the 4 pooling ops.
	if r.WinCounts[gpu.T4] < 12 {
		t.Errorf("G4 wins %d ops, paper says 16", r.WinCounts[gpu.T4])
	}
	if !r.PoolingP3Wins {
		t.Error("P3 should be cheapest on the pooling operations")
	}
	if r.WinCounts[gpu.V100] < 4 {
		t.Errorf("P3 wins %d ops, paper says 4", r.WinCounts[gpu.V100])
	}
}

func TestFig04Claims(t *testing.T) {
	r, err := Fig04(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("Fig. 4 series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if s.R2 < 0.8 {
			t.Errorf("%s ReLU fit R² = %.3f, want linear scaling", s.GPU.Family(), s.R2)
		}
		if s.Slope <= 0 {
			t.Errorf("%s ReLU slope non-positive", s.GPU.Family())
		}
	}
	// Slopes order with memory bandwidth: P2 steepest, P3 shallowest.
	slope := map[gpu.ID]float64{}
	for _, s := range r.Series {
		slope[s.GPU] = s.Slope
	}
	if !(slope[gpu.V100] < slope[gpu.T4] && slope[gpu.T4] < slope[gpu.K80]) {
		t.Errorf("ReLU slopes not ordered by GPU speed: %v", slope)
	}
}

func TestFig05Claims(t *testing.T) {
	r, err := Fig05(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range gpu.All() {
		if r.FracBelow01[m] < 0.95 {
			t.Errorf("%s: only %.1f%% of heavy-op deviations below 0.1 (paper: 95%%)",
				m.Family(), r.FracBelow01[m]*100)
		}
		if r.P95[m] <= 0 {
			t.Errorf("%s: p95 = %v", m.Family(), r.P95[m])
		}
	}
}

func TestSec3AClaims(t *testing.T) {
	r, err := ClassShares(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Share) != 8 {
		t.Errorf("class shares for %d CNNs, want 8", len(r.Share))
	}
	for cnn, s := range r.Share {
		if s[ops.HeavyGPU] < 0.47 {
			t.Errorf("%s heavy share %.2f below the paper's 47%% floor", cnn, s[ops.HeavyGPU])
		}
		if s[ops.LightGPU] > 0.07 {
			t.Errorf("%s light share %.2f above the paper's 7%% ceiling", cnn, s[ops.LightGPU])
		}
	}
}

func TestFig06Claims(t *testing.T) {
	r, err := Fig06(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: average reductions 35.8%, 46.6%, 53.6% at k=2,3,4. The
	// reproduction runs a few points stronger at k=3,4 (see
	// EXPERIMENTS.md); the bands bound that drift.
	bands := map[int][2]float64{2: {0.28, 0.47}, 3: {0.38, 0.58}, 4: {0.45, 0.66}}
	for k, band := range bands {
		if v := r.AvgReduction[k]; v < band[0] || v > band[1] {
			t.Errorf("k=%d avg reduction = %.1f%%, want within [%.0f%%, %.0f%%]",
				k, v*100, band[0]*100, band[1]*100)
		}
	}
	// Diminishing returns: step k=1→2 bigger than 2→3 bigger than 3→4.
	step2 := r.AvgReduction[2]
	step3 := r.AvgReduction[3] - r.AvgReduction[2]
	step4 := r.AvgReduction[4] - r.AvgReduction[3]
	if !(step2 > step3 && step3 > step4) {
		t.Errorf("reductions not diminishing: %.2f %.2f %.2f", step2, step3, step4)
	}
	// Predictions track observations.
	for _, m := range gpu.All() {
		for _, cell := range r.PerGPU[m] {
			rel := cell.PredictedSeconds/cell.ObservedSeconds - 1
			if rel < -0.2 || rel > 0.2 {
				t.Errorf("%s k=%d prediction off by %.1f%%", m.Family(), cell.K, rel*100)
			}
		}
	}
}

func TestFig07Claims(t *testing.T) {
	r, err := Fig07(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		if s.R2 < 0.85 {
			t.Errorf("%s comm fit R² = %.3f (paper band 0.88-0.98)", s.GPU.Family(), s.R2)
		}
		if s.Slope <= 0 {
			t.Errorf("%s comm slope non-positive", s.GPU.Family())
		}
		if len(s.Points) != 8 {
			t.Errorf("%s has %d points, want 8 training CNNs", s.GPU.Family(), len(s.Points))
		}
	}
}

func TestFig08Claims(t *testing.T) {
	r, err := Fig08(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 16 {
		t.Fatalf("Fig. 8 has %d cells, want 16", len(r.Cells))
	}
	if r.AvgAbsErr > 0.12 {
		t.Errorf("avg validation error = %.1f%% (paper: 5.4%%)", r.AvgAbsErr*100)
	}
	if !r.RankingAgreement {
		t.Error("predicted ranking should match observed for every CNN")
	}
	// P3 reduction bands around the paper's 72.4/62.9/48.0%. The
	// reproduction's ratios run somewhat higher (see EXPERIMENTS.md);
	// the ordering P2 > G3 > G4 is the invariant.
	if v := r.P3TimeReduction[gpu.K80]; v < 0.60 || v > 0.95 {
		t.Errorf("P3 vs P2 reduction = %.1f%%, paper 72.4%%", v*100)
	}
	if v := r.P3TimeReduction[gpu.T4]; v < 0.35 || v > 0.75 {
		t.Errorf("P3 vs G4 reduction = %.1f%%, paper 48.0%%", v*100)
	}
	if !(r.P3TimeReduction[gpu.K80] > r.P3TimeReduction[gpu.M60] &&
		r.P3TimeReduction[gpu.M60] > r.P3TimeReduction[gpu.T4]) {
		t.Error("P3 reductions must order P2 > G3 > G4")
	}
	if !r.G4Cheapest {
		t.Error("G4 should deliver the lowest training cost for most test CNNs")
	}
}

func TestFig09Claims(t *testing.T) {
	r, err := Fig09(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.CeerMatchesObserved {
		t.Error("Ceer should pick the observed-best configuration for every CNN")
	}
	best := map[string]cloud.Config{}
	for _, row := range r.Rows {
		best[row.CNN] = row.BestPredicted
		if row.AvgAbsErr > 0.12 {
			t.Errorf("%s per-iteration error = %.1f%% (paper: 5.6%%)", row.CNN, row.AvgAbsErr*100)
		}
	}
	// Paper: P3 optimal for Inception-v3 and VGG-19; G4 for AlexNet and
	// ResNet-101. In this reproduction the CNN-dependent crossover holds
	// with G4 winning ResNet-101; AlexNet lands on P3 because the paper's
	// stated AlexNet outcome is incompatible with its own linear
	// communication model (see EXPERIMENTS.md).
	if best["inception-v3"].GPU != gpu.V100 {
		t.Errorf("inception-v3 best = %s, paper says 1xP3", best["inception-v3"])
	}
	if best["vgg-19"].GPU != gpu.V100 {
		t.Errorf("vgg-19 best = %s, paper says 1xP3", best["vgg-19"])
	}
	if best["resnet-101"].GPU != gpu.T4 {
		t.Errorf("resnet-101 best = %s, paper says 3xG4", best["resnet-101"])
	}
	if pen := r.P3DefaultPenalty["resnet-101"]; pen < 0.03 {
		t.Errorf("resnet-101 default-P3 penalty = %.0f%%, paper ~27%%", pen*100)
	}
}

func TestFig10Claims(t *testing.T) {
	r, err := Fig10(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.BestPredicted.GPU != gpu.V100 || r.BestPredicted.K != 3 {
		t.Errorf("best = %s, paper says 3xP3", r.BestPredicted)
	}
	if r.BestPredicted != r.BestObserved {
		t.Errorf("predicted best %s != observed best %s", r.BestPredicted, r.BestObserved)
	}
	if !r.InfeasiblePredictedRight {
		t.Error("feasibility calls should match observation")
	}
	// P2 configs and the 4-GPU P3 must be infeasible at $10.
	for _, cand := range r.Candidates {
		if cand.Cfg.GPU == gpu.K80 && cand.Feasible {
			t.Errorf("%s should exceed the $10 budget", cand.Cfg)
		}
	}
	if r.CheapestFeasibleSlowdown < 3 {
		t.Errorf("cheapest-feasible slowdown = %.1fx, paper 9.1x", r.CheapestFeasibleSlowdown)
	}
	if r.AvgAbsErr > 0.12 {
		t.Errorf("avg error = %.1f%% (paper: 5.9%%)", r.AvgAbsErr*100)
	}
}

func TestFig11Claims(t *testing.T) {
	r, err := Fig11(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	want := cloud.Config{GPU: gpu.T4, K: 1}
	if r.BestPredicted != want || r.BestObserved != want {
		t.Errorf("best pred/obs = %s/%s, paper says 1xG4", r.BestPredicted, r.BestObserved)
	}
	if r.AvgAbsErr > 0.10 {
		t.Errorf("cost error = %.1f%% (paper: 2.1%%)", r.AvgAbsErr*100)
	}
	if v := r.RatioVs["cheapest instance (1xG3)"]; v < 1.2 || v > 2.5 {
		t.Errorf("1xG3 ratio = %.1fx, paper 1.6x", v)
	}
	if v := r.RatioVs["most powerful instance (4xP3)"]; v < 1.3 || v > 3.0 {
		t.Errorf("4xP3 ratio = %.1fx, paper 1.8x", v)
	}
}

func TestFig12Claims(t *testing.T) {
	r, err := Fig12(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	want := cloud.Config{GPU: gpu.K80, K: 1}
	if r.BestPredicted != want || r.BestObserved != want {
		t.Errorf("best pred/obs = %s/%s, paper says 1xP2 under market prices", r.BestPredicted, r.BestObserved)
	}
	if v := r.RatioVs["on-demand optimum (1xG4)"]; v < 1.5 || v > 4.0 {
		t.Errorf("1xG4 ratio = %.1fx, paper 2.4x", v)
	}
}

func TestSec4AClaims(t *testing.T) {
	r, err := Sec4A(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanErr[ceer.NoComm] <= r.MeanErr[ceer.Full] {
		t.Error("dropping comm must hurt accuracy")
	}
	if r.MeanErr[ceer.HeavyOnlyNoComm] <= r.MeanErr[ceer.Full] {
		t.Error("dropping light+CPU+comm must hurt accuracy")
	}
	// Paper reports ~30%; this reproduction's communication calibration
	// (see EXPERIMENTS.md) puts AlexNet's comm share lower.
	if r.AlexNetNoCommErr < 0.04 {
		t.Errorf("AlexNet no-comm error = %.1f%%, want >= 4%%", r.AlexNetNoCommErr*100)
	}
	if r.MeanErr[ceer.Full] > 0.10 {
		t.Errorf("full-model mean error = %.1f%%", r.MeanErr[ceer.Full]*100)
	}
}

// Accuracy bands at test depth (seed 21, 60 profiling iterations). The
// measured values are pinned with the margin each band leaves, so a
// change to fitting or selection that moves prediction quality fails
// here, not only in the experiments report.
const (
	// minTrainR2: measured 0.990 (the worst op model); margin 0.02.
	minTrainR2 = 0.97
	// maxMedianOpMAPE: measured 3.14% median held-out per-op MAPE
	// (paper band 2-10%); margin 1.86 points.
	maxMedianOpMAPE = 0.05
	// maxOverallMeanErr: measured 1.71% over the 48 test runs (paper
	// ~4.2%); margin 1.29 points. All-linear models measure 22.0% in
	// the selection ablation.
	maxOverallMeanErr = 0.03
	// maxOverallMaxErr: measured 8.93%; margin 3.07 points.
	maxOverallMaxErr = 0.12
)

func TestSec4BClaims(t *testing.T) {
	r, err := Sec4B(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.R2Max > 1.0001 || r.R2Min < minTrainR2 {
		t.Errorf("R² range [%.3f, %.3f], want within [%.2f, 1]", r.R2Min, r.R2Max, minTrainR2)
	}
	if r.MedianTestMAPE > maxMedianOpMAPE {
		t.Errorf("median per-op MAPE = %.2f%%, want <= %.0f%% (measured 3.14%%)",
			r.MedianTestMAPE*100, maxMedianOpMAPE*100)
	}
	// The paper's example of an op that needs the quadratic terms
	// selects degree 2 on every device (Section IV-B).
	degree := make(map[gpu.ID]int)
	for _, e := range r.Evals {
		if e.OpType == ops.Conv2DBackpropFilter {
			degree[e.GPU] = e.Degree
		}
	}
	for _, m := range gpu.All() {
		if d, ok := degree[m]; !ok || d != 2 {
			t.Errorf("%s Conv2DBackpropFilter model: degree %d (evaluated %v), want 2", m.Family(), d, ok)
		}
	}
}

func TestOverallClaim(t *testing.T) {
	r, err := Overall(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs != 48 {
		t.Errorf("runs = %d, want 48", r.Runs)
	}
	if r.MeanErr > maxOverallMeanErr {
		t.Errorf("overall mean error = %.2f%%, want <= %.0f%% (measured 1.71%%; paper ~4.2%%)",
			r.MeanErr*100, maxOverallMeanErr*100)
	}
	if r.MaxErr > maxOverallMaxErr {
		t.Errorf("overall max error = %.2f%%, want <= %.0f%% (measured 8.93%%)",
			r.MaxErr*100, maxOverallMaxErr*100)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 20 {
		t.Errorf("registry has %d experiments, want 20", len(names))
	}
	if names[0] != "fig1" || names[11] != "fig12" {
		t.Errorf("registry order wrong: %v", names)
	}
	if _, err := Run("nope", testContext(t)); err == nil {
		t.Error("unknown experiment should error")
	}
	// Every experiment runs and renders.
	c := testContext(t)
	for _, n := range names {
		r, err := Run(n, c)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if tbl := r.Table(); tbl == nil || tbl.String() == "" {
			t.Errorf("%s renders empty table", n)
		}
	}
}

func TestTableRendersContainPaperAnchors(t *testing.T) {
	c := testContext(t)
	r8, err := Fig08(c)
	if err != nil {
		t.Fatal(err)
	}
	s := r8.Table().String()
	for _, want := range []string{"inception-v3", "alexnet", "P3", "pred"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig. 8 table missing %q", want)
		}
	}
}

func TestExtBatchClaims(t *testing.T) {
	r, err := ExtBatch(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("batch sweep rows = %d", len(r.Rows))
	}
	// Per-sample latency is U-shaped: batch 16 beats batch 8
	// (launch/sync amortization) while very large batches pay the
	// growing Conv2DBackpropFilter contention.
	perSample := map[int64]float64{}
	for _, row := range r.Rows {
		perSample[row.Batch] = row.PerSampleMs
		if !row.BestCost.Valid() || !row.BestTime.Valid() {
			t.Errorf("batch %d produced invalid recommendations", row.Batch)
		}
	}
	if perSample[16] >= perSample[8] {
		t.Error("batch 16 should beat batch 8 per sample (amortization)")
	}
	if perSample[128] <= perSample[32] {
		t.Error("batch 128 should pay more per sample than batch 32 (contention)")
	}
}

func TestExtSelectionClaims(t *testing.T) {
	r, err := ExtSelection(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.QuadCount["all-linear"] != 0 {
		t.Errorf("all-linear variant has %d quadratic models", r.QuadCount["all-linear"])
	}
	if r.QuadCount["all-quadratic"] <= r.QuadCount["auto"] {
		t.Error("all-quadratic should fit more degree-2 models than auto")
	}
	if r.QuadCount["auto"] < 4 {
		t.Errorf("auto selected %d quadratics, want at least Conv2DBackpropFilter on 4 GPUs", r.QuadCount["auto"])
	}
	// Auto must not be meaningfully worse than either forced variant.
	if r.MeanErr["auto"] > r.MeanErr["all-linear"]+0.01 {
		t.Errorf("auto (%.3f) worse than all-linear (%.3f)", r.MeanErr["auto"], r.MeanErr["all-linear"])
	}
	if r.MeanErr["auto"] > r.MeanErr["all-quadratic"]+0.01 {
		t.Errorf("auto (%.3f) worse than all-quadratic (%.3f)", r.MeanErr["auto"], r.MeanErr["all-quadratic"])
	}
}

func TestExtFoldClaims(t *testing.T) {
	c := testContext(t)
	r, err := ExtFold(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("fold table rows = %d, want one per zoo CNN", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Classes <= 0 || row.Classes > row.Nodes {
			t.Errorf("%s: %d classes for %d nodes", row.CNN, row.Classes, row.Nodes)
		}
		if row.HeavyClasses > row.Classes || row.HeavyNodes > row.Nodes {
			t.Errorf("%s: heavy counts exceed totals", row.CNN)
		}
		if row.HeavyClasses == 0 {
			t.Errorf("%s: no heavy classes", row.CNN)
		}
		if got := float64(row.Classes) / float64(row.Nodes); !eqExact(got, row.Ratio) {
			t.Errorf("%s: ratio %v inconsistent with counts", row.CNN, row.Ratio)
		}
		// The deep repetitive nets are the fold's raison d'être.
		if row.CNN == "resnet-152" && row.Ratio > 0.25 {
			t.Errorf("resnet-152 fold ratio %.2f, want well under 0.25", row.Ratio)
		}
	}
}

func TestExtMemoryClaims(t *testing.T) {
	r, err := ExtMemory(testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 { // 4 test CNNs x 3 batch sizes
		t.Fatalf("memory matrix rows = %d", len(r.Rows))
	}
	byKey := map[string]ExtMemoryRow{}
	for _, row := range r.Rows {
		byKey[fmt.Sprintf("%s/%d", row.CNN, row.Batch)] = row
		if row.NeedGB <= 0 {
			t.Errorf("%s@%d: non-positive estimate", row.CNN, row.Batch)
		}
		// Need grows with batch; feasibility is monotone in GPU memory.
		if row.FitsGPU[gpu.M60] && !row.FitsGPU[gpu.V100] {
			t.Errorf("%s@%d: fits 8 GB but not 16 GB?", row.CNN, row.Batch)
		}
	}
	// Everything fits everywhere at batch 32 (the paper's setting).
	for _, name := range []string{"alexnet", "inception-v3", "resnet-101", "vgg-19"} {
		row := byKey[name+"/32"]
		for m, fits := range row.FitsGPU {
			if !fits {
				t.Errorf("%s@32 should fit on %v", name, m)
			}
		}
	}
	// VGG-19 at batch 128 must not fit the 8 GB M60.
	if byKey["vgg-19/128"].FitsGPU[gpu.M60] {
		t.Error("vgg-19@128 should not fit an 8 GB M60")
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: the fold ratio is recomputed
// from the same integer counts it was derived from.
func eqExact(a, b float64) bool { return a == b }

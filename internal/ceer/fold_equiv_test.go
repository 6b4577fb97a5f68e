package ceer

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/zoo"
)

// equivTol is the compiled-vs-naive tolerance: count × prediction
// differs from count repeated additions only at ulp level.
const equivTol = 1e-9

func relDiff(a, b float64) float64 {
	//lint:ignore floatcmp exact equality is the fast path of this tolerance helper
	if a == b {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

func checkIterEqual(t *testing.T, ctx string, got, naive IterPrediction) {
	t.Helper()
	fields := []struct {
		name string
		f, n float64
	}{
		{"HeavySeconds", got.HeavySeconds, naive.HeavySeconds},
		{"LightSeconds", got.LightSeconds, naive.LightSeconds},
		{"CPUSeconds", got.CPUSeconds, naive.CPUSeconds},
		{"CommSeconds", got.CommSeconds, naive.CommSeconds},
		{"PerIterSeconds", got.PerIterSeconds, naive.PerIterSeconds},
	}
	for _, f := range fields {
		if d := relDiff(f.f, f.n); d > equivTol {
			t.Errorf("%s: %s compiled %v vs naive %v (rel diff %.2e)", ctx, f.name, f.f, f.n, d)
		}
	}
	if len(got.UnseenHeavy) != len(naive.UnseenHeavy) {
		t.Errorf("%s: unseen-heavy lists differ: %v vs %v", ctx, got.UnseenHeavy, naive.UnseenHeavy)
		return
	}
	for i := range got.UnseenHeavy {
		if got.UnseenHeavy[i] != naive.UnseenHeavy[i] {
			t.Errorf("%s: unseen-heavy lists differ: %v vs %v", ctx, got.UnseenHeavy, naive.UnseenHeavy)
			return
		}
	}
}

// TestFoldedMatchesUnfolded pins the one-graph compile (the ForGraph
// path, taken by graphs outside a compiled set) against the unfolded
// per-node oracle on every zoo CNN × every registered device × every
// trained k, within float tolerance — and against the zoo-wide tables
// bit for bit: a graph's answer must not depend on which other graphs
// were compiled beside it.
func TestFoldedMatchesUnfolded(t *testing.T) {
	zooTables, graphs := compiled(t)
	p := zooTables.Predictor()
	for _, g := range graphs {
		rebuilt := zoo.MustBuild(g.Name, 32) // outside the zoo tables' set
		alone, err := zooTables.ForGraph(rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range gpu.All() {
			for _, k := range []int{1, 2, 4} {
				got, err := alone.PredictIteration(rebuilt, m, k, Full)
				if err != nil {
					t.Fatalf("%s/%s/k=%d one-graph: %v", g.Name, m, k, err)
				}
				naive, err := p.PredictIterationUnfolded(g, m, k, Full)
				if err != nil {
					t.Fatalf("%s/%s/k=%d naive: %v", g.Name, m, k, err)
				}
				checkIterEqual(t, g.Name+"/"+string(m), got, naive)
				zooIter, err := zooTables.PredictIteration(g, m, k, Full)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, zooIter) {
					t.Errorf("%s/%s/k=%d: one-graph %+v differs from zoo tables %+v", g.Name, m, k, got, zooIter)
				}
			}
			// k=8 exceeds the trained comm range (Pipeline.MaxK = 4): the
			// op-sum is k-independent, so NoComm still compares, and the
			// Full variant must fail on both paths.
			got, err := alone.PredictIteration(rebuilt, m, 8, NoComm)
			if err != nil {
				t.Fatalf("%s/%s/k=8 one-graph no-comm: %v", g.Name, m, err)
			}
			naive, err := p.PredictIterationUnfolded(g, m, 8, NoComm)
			if err != nil {
				t.Fatalf("%s/%s/k=8 naive no-comm: %v", g.Name, m, err)
			}
			checkIterEqual(t, g.Name+"/"+string(m)+"/k=8", got, naive)
			if _, err := alone.PredictIteration(rebuilt, m, 8, Full); err == nil {
				t.Errorf("%s/%s: one-graph Full at untrained k=8 should error", g.Name, m)
			}
			if _, err := p.PredictIterationUnfolded(g, m, 8, Full); err == nil {
				t.Errorf("%s/%s: naive Full at untrained k=8 should error", g.Name, m)
			}
		}
	}
}

// TestFoldedMatchesUnfoldedVariants covers the ablation assembly of a
// one-graph compile.
func TestFoldedMatchesUnfoldedVariants(t *testing.T) {
	p, _ := predictor(t)
	for _, name := range []string{"alexnet", "inception-resnet-v2"} {
		g := zoo.MustBuild(name, 32)
		c := compileFor(t, p, g)
		for _, v := range []Variant{Full, NoComm, HeavyOnly, HeavyOnlyNoComm} {
			got, err := c.PredictIteration(g, gpu.V100, 2, v)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := p.PredictIterationUnfolded(g, gpu.V100, 2, v)
			if err != nil {
				t.Fatal(err)
			}
			checkIterEqual(t, name+"/"+v.String(), got, naive)
		}
	}
}

// TestFoldedMatchesUnfoldedUnseen pins the degraded-prediction path: a
// predictor trained without the inception family must compile to
// tables that match the oracle, unseen-heavy warnings included.
func TestFoldedMatchesUnfoldedUnseen(t *testing.T) {
	pl := DefaultPipeline(13)
	pl.ProfileIterations = 20
	pl.CommIterations = 5
	p, _, err := pl.TrainOn(context.Background(), zoo.Build, []string{"vgg-11", "resnet-50", "alexnet"})
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.MustBuild("inception-v4", 32)
	got, err := compileFor(t, p, g).PredictIteration(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := p.PredictIterationUnfolded(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	checkIterEqual(t, "inception-v4/unseen", got, naive)
	if len(got.UnseenHeavy) == 0 {
		t.Error("expected unseen heavy types for an inception net on a vgg/resnet-trained predictor")
	}
}

// naiveRecommend mirrors Recommend candidate for candidate but predicts
// through the unfolded oracle (clean devices only).
func naiveRecommend(p *Predictor, g *graph.Graph, ds dataset.Dataset, pricing cloud.Pricing,
	candidates []cloud.Config, obj Objective, constraints ...Constraint) (Recommendation, error) {
	rec := Recommendation{}
	bestScore := math.Inf(1)
	for _, cfg := range candidates {
		iter, err := p.PredictIterationUnfolded(g, cfg.GPU, cfg.K, Full)
		if err != nil {
			return Recommendation{}, err
		}
		pred, err := p.finishPrediction(g, cfg, ds, pricing, iter)
		if err != nil {
			return Recommendation{}, err
		}
		cand := Candidate{Prediction: pred, Feasible: true}
		for _, c := range constraints {
			if !c(pred) {
				cand.Feasible = false
				break
			}
		}
		if cand.Feasible {
			cand.Score = obj(pred.TotalSeconds, pred.CostUSD)
			if cand.Score < bestScore {
				bestScore = cand.Score
				rec.Best = cand
			}
		}
		rec.Candidates = append(rec.Candidates, cand)
	}
	return rec, nil
}

// checkRecommendEqual requires the same winner, the same candidate
// order, feasibility and degraded labels, and predictions within
// tolerance.
func checkRecommendEqual(t *testing.T, ctx string, got, want Recommendation) {
	t.Helper()
	if got.Best.Cfg != want.Best.Cfg {
		t.Errorf("%s: compiled picks %s, naive picks %s", ctx, got.Best.Cfg, want.Best.Cfg)
	}
	if got.Best.Degraded != want.Best.Degraded {
		t.Errorf("%s: degraded label differs: %q vs %q", ctx, got.Best.Degraded, want.Best.Degraded)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: candidate counts differ: %d vs %d", ctx, len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		gc, wc := got.Candidates[i], want.Candidates[i]
		if gc.Cfg != wc.Cfg || gc.Feasible != wc.Feasible || gc.Degraded != wc.Degraded {
			t.Errorf("%s: candidate %d differs: %s/%v/%q vs %s/%v/%q",
				ctx, i, gc.Cfg, gc.Feasible, gc.Degraded, wc.Cfg, wc.Feasible, wc.Degraded)
		}
		if d := relDiff(gc.TotalSeconds, wc.TotalSeconds); d > equivTol {
			t.Errorf("%s %s: TotalSeconds %v vs %v (rel diff %.2e)", ctx, gc.Cfg, gc.TotalSeconds, wc.TotalSeconds, d)
		}
		if d := relDiff(gc.CostUSD, wc.CostUSD); d > equivTol {
			t.Errorf("%s %s: CostUSD %v vs %v (rel diff %.2e)", ctx, gc.Cfg, gc.CostUSD, wc.CostUSD, d)
		}
	}
}

// TestRecommendMatchesNaiveSweep verifies the compiled device×k sweep
// of a one-graph compile (op-sum gathered once per device) against a
// per-candidate unfolded sweep: identical winner, identical
// feasibility, and per-candidate predictions within tolerance.
func TestRecommendMatchesNaiveSweep(t *testing.T) {
	p, _ := predictor(t)
	for _, name := range zoo.TestSet() {
		g := zoo.MustBuild(name, 32)
		c := compileFor(t, p, g)
		for _, obj := range []Objective{MinimizeCost, MinimizeTime} {
			cons := []Constraint{MaxHourlyBudget(20, 0), FitsGPUMemory(g)}
			got, err := c.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4), obj, cons...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naiveRecommend(p, g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4), obj, cons...)
			if err != nil {
				t.Fatal(err)
			}
			checkRecommendEqual(t, name, got, want)
		}
	}
}

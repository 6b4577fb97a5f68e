package ceer

import (
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/zoo"
)

// TestRecommendAllFilteredOut: when every candidate fails a constraint,
// Recommend must error but still return the full candidate table, so a
// caller can show why nothing fit. (`ceer recommend` itself returns the
// error without rendering the table.)
func TestRecommendAllFilteredOut(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("resnet-50", 32)
	rec, err := compileFor(t, p, g).Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4),
		MinimizeCost, MaxHourlyBudget(0.001, 0))
	if err == nil {
		t.Fatal("all-infeasible sweep should error")
	}
	if len(rec.Candidates) != 16 {
		t.Fatalf("error path returned %d candidates, want the full 16", len(rec.Candidates))
	}
	for _, c := range rec.Candidates {
		if c.Feasible {
			t.Errorf("%s marked feasible under an impossible hourly budget", c.Cfg)
		}
	}
	if rec.Best.Cfg != (cloud.Config{}) {
		t.Errorf("Best should be zero-valued when nothing is feasible, got %s", rec.Best.Cfg)
	}
}

// TestMaxTotalBudgetFilters checks the total-cost cap against the
// sweep's own unconstrained costs: a budget just above the cheapest
// candidate keeps the cost winner and rejects pricier configurations.
func TestMaxTotalBudgetFilters(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	comp := compileFor(t, p, g)
	free, err := comp.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	budget := free.Best.CostUSD * 1.01
	rec, err := comp.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4),
		MinimizeCost, MaxTotalBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Cfg != free.Best.Cfg {
		t.Errorf("budget %.4f changed the cost winner: %s vs %s", budget, rec.Best.Cfg, free.Best.Cfg)
	}
	infeasible := 0
	for _, c := range rec.Candidates {
		if c.Feasible && c.CostUSD > budget {
			t.Errorf("%s feasible at cost %.4f over budget %.4f", c.Cfg, c.CostUSD, budget)
		}
		if !c.Feasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Error("a near-minimal total budget should reject some candidates")
	}
}

// TestRecommendCombinedConstraints stacks all three built-in constraint
// kinds on one sweep.
func TestRecommendCombinedConstraints(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("vgg-19", 64) // over 8 GB: excludes the 8 GB M60 and 12 GB K80
	rec, err := compileFor(t, p, g).Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4),
		MinimizeTime, MaxHourlyBudget(15, 0), MaxTotalBudget(1000), FitsGPUMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Best.Feasible {
		t.Error("Best must be feasible")
	}
	for _, c := range rec.Candidates {
		if !c.Feasible {
			continue
		}
		if c.HourlyUSD > 15 || c.CostUSD > 1000 {
			t.Errorf("%s violates a budget: $%.2f/hr, $%.2f total", c.Cfg, c.HourlyUSD, c.CostUSD)
		}
		if c.Cfg.GPU == gpu.M60 || c.Cfg.GPU == gpu.K80 {
			t.Errorf("%s should be memory-infeasible for vgg-19@64", c.Cfg)
		}
	}
}

// TestRecommendInvalidConfig: an invalid candidate aborts the sweep.
func TestRecommendInvalidConfig(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	bad := []cloud.Config{{GPU: gpu.V100, K: 0}}
	if _, err := compileFor(t, p, g).Recommend(g, dataset.ImageNet, cloud.OnDemand, bad, MinimizeCost); err == nil {
		t.Error("invalid config should error")
	}
}

package ceer

import (
	"ceer/internal/gpu"
	"ceer/internal/graph"
)

// Objective scores a (training time, training cost) pair; the
// recommender minimizes it (Section IV-D's Obj(T, C)).
type Objective func(totalSeconds, costUSD float64) float64

// MinimizeTime is the pure-performance objective.
func MinimizeTime(t, _ float64) float64 { return t }

// MinimizeCost is the pure-cost objective.
func MinimizeCost(_, c float64) float64 { return c }

// WeightedObjective blends normalized time and cost with weight w on
// time (0 ≤ w ≤ 1); normalizers should be representative scales.
func WeightedObjective(w, timeScale, costScale float64) Objective {
	return func(t, c float64) float64 {
		return w*t/timeScale + (1-w)*c/costScale
	}
}

// Constraint accepts or rejects a candidate prediction (budget caps).
type Constraint func(pred Prediction) bool

// MaxHourlyBudget rejects configurations whose hourly price exceeds the
// budget (with an optional slack matching the paper's trivially-violated
// budgets in Figure 9: "+6 cents for P3").
func MaxHourlyBudget(usdPerHour, slack float64) Constraint {
	return func(p Prediction) bool { return p.HourlyUSD <= usdPerHour+slack }
}

// MaxTotalBudget rejects configurations whose predicted training cost
// exceeds the budget (Figure 10's $10 cap).
func MaxTotalBudget(usd float64) Constraint {
	return func(p Prediction) bool { return p.CostUSD <= usd }
}

// FitsGPUMemory rejects configurations whose per-GPU training footprint
// (weights + optimizer state + retained activations) exceeds the GPU
// model's memory. Under data parallelism every GPU holds a full model
// replica (Section II), so the per-GPU footprint is independent of k.
func FitsGPUMemory(g *graph.Graph) Constraint {
	need := g.EstimateMemory().TotalBytes()
	return func(p Prediction) bool {
		dev, ok := gpu.Lookup(p.Cfg.GPU)
		if !ok {
			return false
		}
		return need <= int64(dev.MemoryGB)*1e9
	}
}

// Candidate pairs a configuration with its prediction and feasibility.
type Candidate struct {
	Prediction
	// Feasible reports whether every constraint accepted the candidate.
	Feasible bool
	// Score is the objective value (only meaningful when feasible).
	Score float64
	// Degraded explains why the candidate's device trained on
	// incomplete campaign coverage; empty for clean devices.
	Degraded string
}

// Recommendation is the outcome of a recommender run.
type Recommendation struct {
	// Best is the feasible candidate with the minimal objective.
	// Candidates on cleanly-covered devices always win over degraded
	// ones; a degraded Best (Best.Degraded != "") means no clean
	// feasible candidate existed.
	Best Candidate
	// Candidates lists every evaluated configuration (feasible or not)
	// in the order given.
	Candidates []Candidate
}

package experiments

import (
	"fmt"
	"math"
	"sort"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/stats"
	"ceer/internal/textutil"
	"ceer/internal/zoo"
)

// Fig08Cell is one (test CNN, GPU model) validation measurement on the
// 4-GPU instances.
type Fig08Cell struct {
	CNN string
	GPU gpu.ID
	// ObservedSeconds / PredictedSeconds: one ImageNet epoch, k = 4.
	ObservedSeconds  float64
	PredictedSeconds float64
	// ObservedCostUSD / PredictedCostUSD: the corresponding rental cost.
	ObservedCostUSD  float64
	PredictedCostUSD float64
	// RelErr is the signed training-time prediction error.
	RelErr float64
}

// Fig08Result reproduces Figure 8: predicted vs observed training time
// and cost for the 4 test CNNs on the four 4-GPU instances.
type Fig08Result struct {
	Cells []Fig08Cell
	// AvgAbsErr is the mean absolute prediction error (paper: 5.4%).
	AvgAbsErr float64
	// RankingAgreement reports whether the predicted GPU-model ranking
	// matches the observed ranking for every CNN (paper: perfect).
	RankingAgreement bool
	// P3TimeReduction maps a slower model to the average observed
	// training-time reduction P3 achieves over it (paper: 72.4% vs P2,
	// 62.9% vs G3, 48.0% vs G4).
	P3TimeReduction map[gpu.ID]float64
	// G4Cheapest reports whether G4 delivers the lowest observed
	// training cost for the majority of the test CNNs.
	G4Cheapest bool
}

// Fig08 runs the validation test.
func Fig08(c *Context) (*Fig08Result, error) {
	ds := dataset.ImageNet
	res := &Fig08Result{P3TimeReduction: make(map[gpu.ID]float64)}
	var absErrs []float64
	obsByCNN := make(map[string]map[gpu.ID]float64)
	predByCNN := make(map[string]map[gpu.ID]float64)
	costWins := make(map[gpu.ID]int)

	for _, name := range zoo.TestSet() {
		g, err := c.Graph(name)
		if err != nil {
			return nil, err
		}
		obsByCNN[name] = make(map[gpu.ID]float64)
		predByCNN[name] = make(map[gpu.ID]float64)
		bestCostGPU, bestCost := gpu.V100, math.Inf(1)
		for _, m := range gpuOrder() {
			cfg := cloud.Config{GPU: m, K: 4}
			obs, err := c.Observe(g, cfg, ds)
			if err != nil {
				return nil, err
			}
			obsCost, err := obs.CostUSD(cloud.OnDemand)
			if err != nil {
				return nil, err
			}
			pred, err := c.comp.PredictTraining(g, cfg, ds, cloud.OnDemand)
			if err != nil {
				return nil, err
			}
			cell := Fig08Cell{
				CNN: name, GPU: m,
				ObservedSeconds:  obs.TotalSeconds,
				PredictedSeconds: pred.TotalSeconds,
				ObservedCostUSD:  obsCost,
				PredictedCostUSD: pred.CostUSD,
				RelErr:           stats.RelErr(obs.TotalSeconds, pred.TotalSeconds),
			}
			res.Cells = append(res.Cells, cell)
			absErrs = append(absErrs, math.Abs(cell.RelErr))
			obsByCNN[name][m] = obs.TotalSeconds
			predByCNN[name][m] = pred.TotalSeconds
			if obsCost < bestCost {
				bestCost, bestCostGPU = obsCost, m
			}
		}
		costWins[bestCostGPU]++
	}
	res.AvgAbsErr = stats.Mean(absErrs)

	res.RankingAgreement = true
	for name := range obsByCNN {
		for _, a := range gpuOrder() {
			for _, b := range gpuOrder() {
				if (obsByCNN[name][a] < obsByCNN[name][b]) != (predByCNN[name][a] < predByCNN[name][b]) {
					res.RankingAgreement = false
				}
			}
		}
	}
	for _, m := range []gpu.ID{gpu.K80, gpu.M60, gpu.T4} {
		sum := 0.0
		for name := range obsByCNN {
			sum += 1 - obsByCNN[name][gpu.V100]/obsByCNN[name][m]
		}
		res.P3TimeReduction[m] = sum / float64(len(obsByCNN))
	}
	res.G4Cheapest = costWins[gpu.T4] >= len(obsByCNN)/2+1
	return res, nil
}

// Table renders the validation results.
func (r *Fig08Result) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Fig. 8 — Validation: observed vs predicted (4-GPU instances, ImageNet epoch)",
		Header: []string{"CNN", "GPU", "obs (h)", "pred (h)", "err", "obs cost", "pred cost"},
	}
	for _, cell := range r.Cells {
		t.AddRow(cell.CNN, cell.GPU.Family(),
			textutil.Hours(cell.ObservedSeconds), textutil.Hours(cell.PredictedSeconds),
			textutil.Pct(cell.RelErr),
			textutil.USD(cell.ObservedCostUSD), textutil.USD(cell.PredictedCostUSD))
	}
	t.AddNote("average |error| = %s (paper: 5.4%%)", textutil.Pct(r.AvgAbsErr))
	t.AddNote("predicted ranking matches observed for every CNN: %v (paper: perfect agreement)", r.RankingAgreement)
	t.AddNote("P3 training-time reduction vs P2/G3/G4: %s / %s / %s (paper: 72.4%% / 62.9%% / 48.0%%)",
		textutil.Pct(r.P3TimeReduction[gpu.K80]), textutil.Pct(r.P3TimeReduction[gpu.M60]), textutil.Pct(r.P3TimeReduction[gpu.T4]))
	t.AddNote("G4 lowest-cost for most CNNs: %v", r.G4Cheapest)
	return t
}

// ScenarioCandidate is one configuration's observed and predicted
// outcome within a scenario.
type ScenarioCandidate struct {
	Cfg       cloud.Config
	HourlyUSD float64
	// ObservedSeconds / PredictedSeconds are scenario-specific: the
	// per-iteration time for the hourly-budget scenario, the full
	// training time otherwise.
	ObservedSeconds  float64
	PredictedSeconds float64
	ObservedCostUSD  float64
	PredictedCostUSD float64
	Feasible         bool
}

// Fig09Row is one test CNN's outcome in the hourly-budget scenario.
type Fig09Row struct {
	CNN        string
	Candidates []ScenarioCandidate
	// BestPredicted and BestObserved are the configurations with the
	// lowest predicted and observed per-iteration time.
	BestPredicted cloud.Config
	BestObserved  cloud.Config
	// AvgAbsErr is the per-iteration time prediction error for the CNN.
	AvgAbsErr float64
}

// Fig09Result reproduces Figure 9: minimize per-iteration training time
// under a $3/hr rental budget. The paper's best-in-budget sizes are
// 3×P2, 3×G3, 3×G4 and 1×P3 (G3 exceeds by 42¢, P3 by 6¢ — both
// tolerated as in the paper).
type Fig09Result struct {
	BudgetUSD float64
	Rows      []Fig09Row
	// CeerMatchesObserved reports whether Ceer picked the observed-best
	// configuration for every CNN.
	CeerMatchesObserved bool
	// P3DefaultPenalty maps CNN → per-iteration slowdown of the "pick
	// the largest P3 that fits" default strategy versus Ceer's choice
	// (paper: +91% for AlexNet, +27% for ResNet-101).
	P3DefaultPenalty map[string]float64
}

// fig09Candidates returns the paper's per-family best sizes under the
// $3/hr budget (with its small tolerated violations).
func fig09Candidates() []cloud.Config {
	return []cloud.Config{
		{GPU: gpu.V100, K: 1}, // $3.06 (+6¢ tolerated)
		{GPU: gpu.K80, K: 3},  // $2.70 proxy
		{GPU: gpu.T4, K: 3},   // $2.934 proxy
		{GPU: gpu.M60, K: 3},  // $3.42 proxy (+42¢ tolerated)
	}
}

// Fig09 runs the hourly-budget scenario.
func Fig09(c *Context) (*Fig09Result, error) {
	ds := dataset.ImageNet
	res := &Fig09Result{
		BudgetUSD:           3.0,
		CeerMatchesObserved: true,
		P3DefaultPenalty:    make(map[string]float64),
	}
	for _, name := range zoo.TestSet() {
		g, err := c.Graph(name)
		if err != nil {
			return nil, err
		}
		row := Fig09Row{CNN: name}
		bestObs, bestPred := math.Inf(1), math.Inf(1)
		var errs []float64
		perIterObs := make(map[cloud.Config]float64)
		for _, cfg := range fig09Candidates() {
			obs, err := c.Observe(g, cfg, ds)
			if err != nil {
				return nil, err
			}
			pred, err := c.comp.PredictTraining(g, cfg, ds, cloud.OnDemand)
			if err != nil {
				return nil, err
			}
			hourly, err := cfg.HourlyCost(cloud.OnDemand)
			if err != nil {
				return nil, err
			}
			// Normalize to the single-GPU batch: a k-GPU iteration
			// processes k·B samples, so the comparable per-iteration time
			// is T_iter/k (equivalently, inverse training throughput).
			obsIter := obs.PerIterSeconds / float64(cfg.K)
			predIter := pred.Iter.PerIterSeconds / float64(cfg.K)
			cand := ScenarioCandidate{
				Cfg:              cfg,
				HourlyUSD:        hourly,
				ObservedSeconds:  obsIter,
				PredictedSeconds: predIter,
				Feasible:         true,
			}
			row.Candidates = append(row.Candidates, cand)
			errs = append(errs, math.Abs(stats.RelErr(obsIter, predIter)))
			perIterObs[cfg] = obsIter
			if obsIter < bestObs {
				bestObs = obsIter
				row.BestObserved = cfg
			}
			if predIter < bestPred {
				bestPred = predIter
				row.BestPredicted = cfg
			}
		}
		row.AvgAbsErr = stats.Mean(errs)
		if row.BestObserved != row.BestPredicted {
			res.CeerMatchesObserved = false
		}
		p3 := cloud.Config{GPU: gpu.V100, K: 1}
		if row.BestObserved != p3 {
			res.P3DefaultPenalty[name] = perIterObs[p3]/perIterObs[row.BestObserved] - 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the hourly-budget scenario.
func (r *Fig09Result) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  fmt.Sprintf("Fig. 9 — Per-iteration time under a $%.2f/hr budget", r.BudgetUSD),
		Header: []string{"CNN", "config", "$/hr", "obs iter/k (ms)", "pred iter/k (ms)"},
	}
	for _, row := range r.Rows {
		for _, cand := range row.Candidates {
			marker := ""
			if cand.Cfg == row.BestPredicted {
				marker = " *"
			}
			t.AddRow(row.CNN, cand.Cfg.String()+marker, fmt.Sprintf("%.3f", cand.HourlyUSD),
				textutil.Ms(cand.ObservedSeconds), textutil.Ms(cand.PredictedSeconds))
		}
	}
	t.AddNote("* = Ceer's recommendation; optimal choice is CNN-dependent (paper: P3 for Inception-v3 & VGG-19, G4 for AlexNet & ResNet-101)")
	t.AddNote("Ceer matches the observed optimum for every CNN: %v", r.CeerMatchesObserved)
	for _, row := range r.Rows {
		if pen, ok := r.P3DefaultPenalty[row.CNN]; ok {
			t.AddNote("%s: default-P3 strategy is %s slower per iteration", row.CNN, textutil.Pct(pen))
		}
	}
	return t
}

// Fig10Result reproduces Figure 10: minimize the ImageNet training time
// of ResNet-101 under a $10 total budget.
type Fig10Result struct {
	CNN        string
	BudgetUSD  float64
	Candidates []ScenarioCandidate
	// BestPredicted / BestObserved are the feasible time-minimizing
	// configurations (paper: the 3-GPU P3 instance).
	BestPredicted cloud.Config
	BestObserved  cloud.Config
	// InfeasiblePredictedRight reports whether Ceer's feasibility calls
	// match observation for every candidate (paper: the 4-GPU P3 and
	// all P2 instances exceed the budget, and Ceer predicts so).
	InfeasiblePredictedRight bool
	// CheapestFeasibleSlowdown is the observed slowdown of training on
	// the cheapest feasible instance instead of Ceer's pick (paper:
	// 9.1× for the 1-GPU G3).
	CheapestFeasibleSlowdown float64
	AvgAbsErr                float64
}

// Fig10 runs the total-budget scenario.
func Fig10(c *Context) (*Fig10Result, error) {
	g, err := c.Graph("resnet-101")
	if err != nil {
		return nil, err
	}
	ds := dataset.ImageNet
	res := &Fig10Result{CNN: "resnet-101", BudgetUSD: 10, InfeasiblePredictedRight: true}
	bestObs, bestPred := math.Inf(1), math.Inf(1)
	var errs []float64
	cheapestHourly := math.Inf(1)
	var cheapestCfg cloud.Config
	obsTime := make(map[cloud.Config]float64)
	for _, cfg := range cloud.Configs(4) {
		obs, err := c.Observe(g, cfg, ds)
		if err != nil {
			return nil, err
		}
		obsCost, err := obs.CostUSD(cloud.OnDemand)
		if err != nil {
			return nil, err
		}
		pred, err := c.comp.PredictTraining(g, cfg, ds, cloud.OnDemand)
		if err != nil {
			return nil, err
		}
		hourly, err := cfg.HourlyCost(cloud.OnDemand)
		if err != nil {
			return nil, err
		}
		cand := ScenarioCandidate{
			Cfg:              cfg,
			HourlyUSD:        hourly,
			ObservedSeconds:  obs.TotalSeconds,
			PredictedSeconds: pred.TotalSeconds,
			ObservedCostUSD:  obsCost,
			PredictedCostUSD: pred.CostUSD,
			Feasible:         pred.CostUSD <= res.BudgetUSD,
		}
		res.Candidates = append(res.Candidates, cand)
		errs = append(errs, math.Abs(stats.RelErr(obs.TotalSeconds, pred.TotalSeconds)))
		obsTime[cfg] = obs.TotalSeconds
		if (obsCost <= res.BudgetUSD) != cand.Feasible {
			res.InfeasiblePredictedRight = false
		}
		if cand.Feasible && pred.TotalSeconds < bestPred {
			bestPred = pred.TotalSeconds
			res.BestPredicted = cfg
		}
		if obsCost <= res.BudgetUSD {
			if obs.TotalSeconds < bestObs {
				bestObs = obs.TotalSeconds
				res.BestObserved = cfg
			}
			if hourly < cheapestHourly {
				cheapestHourly = hourly
				cheapestCfg = cfg
			}
		}
	}
	res.AvgAbsErr = stats.Mean(errs)
	if bestObs > 0 && obsTime[cheapestCfg] > 0 {
		res.CheapestFeasibleSlowdown = obsTime[cheapestCfg] / obsTime[res.BestPredicted]
	}
	return res, nil
}

// Table renders the total-budget scenario.
func (r *Fig10Result) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  fmt.Sprintf("Fig. 10 — %s training time under a $%.0f total budget", r.CNN, r.BudgetUSD),
		Header: []string{"config", "obs (h)", "pred (h)", "obs cost", "pred cost", "feasible"},
	}
	for _, cand := range r.Candidates {
		marker := ""
		if cand.Cfg == r.BestPredicted {
			marker = " *"
		}
		t.AddRow(cand.Cfg.String()+marker,
			textutil.Hours(cand.ObservedSeconds), textutil.Hours(cand.PredictedSeconds),
			textutil.USD(cand.ObservedCostUSD), textutil.USD(cand.PredictedCostUSD),
			fmt.Sprintf("%v", cand.Feasible))
	}
	t.AddNote("* = Ceer's recommendation (paper: 3xP3)")
	t.AddNote("feasibility predicted correctly for every candidate: %v", r.InfeasiblePredictedRight)
	t.AddNote("cheapest feasible instance is %.1fx slower than Ceer's pick (paper: 9.1x)", r.CheapestFeasibleSlowdown)
	t.AddNote("average |error| = %s (paper: 5.9%%)", textutil.Pct(r.AvgAbsErr))
	return t
}

// CostMinResult reproduces Figures 11 and 12: minimize the training
// cost of Inception-v3 over one ImageNet epoch, under On-Demand or
// market-ratio pricing.
type CostMinResult struct {
	CNN        string
	Pricing    cloud.Pricing
	Candidates []ScenarioCandidate
	// BestPredicted / BestObserved minimize cost (paper: 1×G4 under
	// On-Demand pricing; 1×P2 under market pricing).
	BestPredicted cloud.Config
	BestObserved  cloud.Config
	AvgAbsErr     float64
	// RatioVs maps a named alternative strategy to its observed cost
	// ratio versus Ceer's pick.
	RatioVs map[string]float64
}

// costMinimization runs the shared Figures 11/12 logic.
func costMinimization(c *Context, pricing cloud.Pricing, alternatives map[string]cloud.Config) (*CostMinResult, error) {
	g, err := c.Graph("inception-v3")
	if err != nil {
		return nil, err
	}
	ds := dataset.ImageNet
	res := &CostMinResult{CNN: "inception-v3", Pricing: pricing, RatioVs: make(map[string]float64)}
	bestObs, bestPred := math.Inf(1), math.Inf(1)
	var errs []float64
	obsCosts := make(map[cloud.Config]float64)
	for _, cfg := range cloud.Configs(4) {
		obs, err := c.Observe(g, cfg, ds)
		if err != nil {
			return nil, err
		}
		obsCost, err := obs.CostUSD(pricing)
		if err != nil {
			return nil, err
		}
		pred, err := c.comp.PredictTraining(g, cfg, ds, pricing)
		if err != nil {
			return nil, err
		}
		hourly, err := cfg.HourlyCost(pricing)
		if err != nil {
			return nil, err
		}
		cand := ScenarioCandidate{
			Cfg:              cfg,
			HourlyUSD:        hourly,
			ObservedSeconds:  obs.TotalSeconds,
			PredictedSeconds: pred.TotalSeconds,
			ObservedCostUSD:  obsCost,
			PredictedCostUSD: pred.CostUSD,
			Feasible:         true,
		}
		res.Candidates = append(res.Candidates, cand)
		errs = append(errs, math.Abs(stats.RelErr(obsCost, pred.CostUSD)))
		obsCosts[cfg] = obsCost
		if obsCost < bestObs {
			bestObs = obsCost
			res.BestObserved = cfg
		}
		if pred.CostUSD < bestPred {
			bestPred = pred.CostUSD
			res.BestPredicted = cfg
		}
	}
	res.AvgAbsErr = stats.Mean(errs)
	for name, cfg := range alternatives {
		if cost, ok := obsCosts[cfg]; ok && obsCosts[res.BestPredicted] > 0 {
			res.RatioVs[name] = cost / obsCosts[res.BestPredicted]
		}
	}
	return res, nil
}

// Fig11 runs cost minimization under On-Demand pricing.
func Fig11(c *Context) (*CostMinResult, error) {
	return costMinimization(c, cloud.OnDemand, map[string]cloud.Config{
		"cheapest instance (1xG3)":      {GPU: gpu.M60, K: 1},
		"most powerful instance (4xP3)": {GPU: gpu.V100, K: 4},
	})
}

// Fig12 runs cost minimization under market-ratio pricing.
func Fig12(c *Context) (*CostMinResult, error) {
	return costMinimization(c, cloud.MarketRatio, map[string]cloud.Config{
		"on-demand optimum (1xG4)": {GPU: gpu.T4, K: 1},
	})
}

// Table renders a cost-minimization scenario.
func (r *CostMinResult) Table() *textutil.Table {
	title := "Fig. 11 — Inception-v3 training-cost minimization (On-Demand prices)"
	if r.Pricing == cloud.MarketRatio {
		title = "Fig. 12 — Inception-v3 training-cost minimization (market-ratio prices)"
	}
	t := &textutil.Table{
		Title:  title,
		Header: []string{"config", "$/hr", "obs cost", "pred cost", "obs time (h)"},
	}
	sort.Slice(r.Candidates, func(i, j int) bool {
		return r.Candidates[i].ObservedCostUSD < r.Candidates[j].ObservedCostUSD
	})
	for _, cand := range r.Candidates {
		marker := ""
		if cand.Cfg == r.BestPredicted {
			marker = " *"
		}
		t.AddRow(cand.Cfg.String()+marker, fmt.Sprintf("%.3f", cand.HourlyUSD),
			textutil.USD(cand.ObservedCostUSD), textutil.USD(cand.PredictedCostUSD),
			textutil.Hours(cand.ObservedSeconds))
	}
	t.AddNote("* = Ceer's recommendation; observed optimum = %s", r.BestObserved)
	t.AddNote("average cost |error| = %s (paper: 2.1%%)", textutil.Pct(r.AvgAbsErr))
	names := make([]string, 0, len(r.RatioVs))
	for name := range r.RatioVs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddNote("%s costs %.1fx Ceer's pick", name, r.RatioVs[name])
	}
	return t
}

package experiments

import (
	"fmt"
	"math"

	"ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/sim"
	"ceer/internal/stats"
	"ceer/internal/textutil"
	"ceer/internal/zoo"
)

// Sec4BResult reproduces the Section IV-B model-quality numbers: per
// heavy-op training R² (paper band 0.84–0.98) and held-out MAPE (paper
// band 2%–10%), plus which operations required a quadratic fit.
type Sec4BResult struct {
	Evals []ceer.OpModelEval
	// R2Min and R2Max bound the training R² across op models.
	R2Min, R2Max float64
	// MedianTestMAPE is the median per-op held-out MAPE.
	MedianTestMAPE float64
	// QuadraticOps lists (GPU family, op) pairs that selected degree 2.
	QuadraticOps []string
}

// Sec4B profiles the test CNNs and evaluates every heavy-op model.
func Sec4B(c *Context) (*Sec4BResult, error) {
	prof := &sim.Profiler{Seed: c.measureSeed() + 1, Iterations: 50, Retain: 8, Workers: c.Workers}
	testBundle, err := prof.ProfileAll(c.Ctx, zoo.Build, zoo.TestSet(), c.Batch, gpu.All())
	if err != nil {
		return nil, err
	}
	evals := c.Pred.EvaluateOpModels(testBundle)
	if len(evals) == 0 {
		return nil, fmt.Errorf("experiments: no op-model evaluations")
	}
	res := &Sec4BResult{Evals: evals, R2Min: math.Inf(1), R2Max: math.Inf(-1)}
	var mapes []float64
	for _, e := range evals {
		if e.TrainR2 < res.R2Min {
			res.R2Min = e.TrainR2
		}
		if e.TrainR2 > res.R2Max {
			res.R2Max = e.TrainR2
		}
		mapes = append(mapes, e.TestMAPE)
		if e.Degree == 2 {
			res.QuadraticOps = append(res.QuadraticOps, fmt.Sprintf("%s/%s", e.GPU.Family(), e.OpType))
		}
	}
	res.MedianTestMAPE = stats.Median(mapes)
	return res, nil
}

// Table renders the per-op model quality.
func (r *Sec4BResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Sec. IV-B — Heavy-operation model quality",
		Header: []string{"GPU", "operation", "degree", "train R^2", "test MAPE", "test n"},
	}
	for _, e := range r.Evals {
		t.AddRow(e.GPU.Family(), string(e.OpType), fmt.Sprintf("%d", e.Degree),
			fmt.Sprintf("%.3f", e.TrainR2), textutil.Pct(e.TestMAPE), fmt.Sprintf("%d", e.TestObs))
	}
	t.AddNote("train R^2 range: %.2f-%.2f (paper: 0.84-0.98)", r.R2Min, r.R2Max)
	t.AddNote("median held-out MAPE: %s (paper: 2%%-10%%)", textutil.Pct(r.MedianTestMAPE))
	t.AddNote("%d models selected a quadratic fit (paper: e.g. Conv2DBackpropFilter)", len(r.QuadraticOps))
	return t
}

// AblationCell is one (CNN, GPU) ablation comparison.
type AblationCell struct {
	CNN string
	GPU gpu.ID
	// Errors maps each predictor variant to its absolute relative error
	// on single-GPU training time.
	Errors map[ceer.Variant]float64
}

// Sec4AResult reproduces the Section IV-A ablation claims: ignoring the
// CPU↔GPU communication overhead hurts single-GPU predictions by 5–20%
// (≈30% for AlexNet), and ignoring light and CPU operations hurts
// accuracy further.
type Sec4AResult struct {
	Cells []AblationCell
	// MeanErr maps each variant to its mean absolute error.
	MeanErr map[ceer.Variant]float64
	// AlexNetNoCommErr is the AlexNet-specific no-communication error
	// (paper: ~30%).
	AlexNetNoCommErr float64
}

// Sec4A measures the ablation variants on the test CNNs (single GPU).
func Sec4A(c *Context) (*Sec4AResult, error) {
	ds := dataset.ImageNetSubset6400
	variants := []ceer.Variant{ceer.Full, ceer.NoComm, ceer.HeavyOnly, ceer.HeavyOnlyNoComm}
	res := &Sec4AResult{MeanErr: make(map[ceer.Variant]float64)}
	sums := make(map[ceer.Variant]float64)
	n := 0
	var alexErrs []float64
	for _, name := range zoo.TestSet() {
		g, err := c.Graph(name)
		if err != nil {
			return nil, err
		}
		for _, m := range gpuOrder() {
			cfg := cloud.Config{GPU: m, K: 1}
			obs, err := c.Observe(g, cfg, ds)
			if err != nil {
				return nil, err
			}
			cell := AblationCell{CNN: name, GPU: m, Errors: make(map[ceer.Variant]float64)}
			for _, v := range variants {
				pred, err := c.comp.PredictTrainingVariant(g, cfg, ds, cloud.OnDemand, v)
				if err != nil {
					return nil, err
				}
				e := math.Abs(stats.RelErr(obs.TotalSeconds, pred.TotalSeconds))
				cell.Errors[v] = e
				sums[v] += e
			}
			if name == "alexnet" {
				alexErrs = append(alexErrs, cell.Errors[ceer.NoComm])
			}
			res.Cells = append(res.Cells, cell)
			n++
		}
	}
	for _, v := range variants {
		res.MeanErr[v] = sums[v] / float64(n)
	}
	res.AlexNetNoCommErr = stats.Mean(alexErrs)
	return res, nil
}

// Table renders the ablation study.
func (r *Sec4AResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Sec. IV-A — Ablations: single-GPU training-time prediction error",
		Header: []string{"CNN", "GPU", "full", "no-comm", "heavy-only", "heavy-only-no-comm"},
	}
	for _, cell := range r.Cells {
		t.AddRow(cell.CNN, cell.GPU.Family(),
			textutil.Pct(cell.Errors[ceer.Full]), textutil.Pct(cell.Errors[ceer.NoComm]),
			textutil.Pct(cell.Errors[ceer.HeavyOnly]), textutil.Pct(cell.Errors[ceer.HeavyOnlyNoComm]))
	}
	t.AddNote("mean |error|: full %s, no-comm %s, heavy-only %s, both %s",
		textutil.Pct(r.MeanErr[ceer.Full]), textutil.Pct(r.MeanErr[ceer.NoComm]),
		textutil.Pct(r.MeanErr[ceer.HeavyOnly]), textutil.Pct(r.MeanErr[ceer.HeavyOnlyNoComm]))
	t.AddNote("AlexNet no-comm error: %s (paper: ~30%%)", textutil.Pct(r.AlexNetNoCommErr))
	return t
}

// OverallResult aggregates the headline number: the average test-set
// prediction error across CNNs and instance types (paper: ~4.2%).
type OverallResult struct {
	Errors    []float64
	MeanErr   float64
	MedianErr float64
	MaxErr    float64
	Runs      int
}

// Overall measures the full test matrix (4 CNNs × 4 GPUs × k ∈ {1,2,4}).
func Overall(c *Context) (*OverallResult, error) {
	ds := dataset.ImageNetSubset6400
	res := &OverallResult{}
	for _, name := range zoo.TestSet() {
		g, err := c.Graph(name)
		if err != nil {
			return nil, err
		}
		for _, m := range gpuOrder() {
			for _, k := range []int{1, 2, 4} {
				cfg := cloud.Config{GPU: m, K: k}
				obs, err := c.Observe(g, cfg, ds)
				if err != nil {
					return nil, err
				}
				pred, err := c.comp.PredictTraining(g, cfg, ds, cloud.OnDemand)
				if err != nil {
					return nil, err
				}
				res.Errors = append(res.Errors, math.Abs(stats.RelErr(obs.TotalSeconds, pred.TotalSeconds)))
				res.Runs++
			}
		}
	}
	res.MeanErr = stats.Mean(res.Errors)
	res.MedianErr = stats.Median(res.Errors)
	_, res.MaxErr = stats.MinMax(res.Errors)
	return res, nil
}

// Table renders the headline accuracy summary.
func (r *OverallResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Overall — Test-set prediction accuracy",
		Header: []string{"metric", "value"},
	}
	t.AddRow("runs (CNN x GPU x k)", fmt.Sprintf("%d", r.Runs))
	t.AddRow("mean |error|", textutil.Pct(r.MeanErr))
	t.AddRow("median |error|", textutil.Pct(r.MedianErr))
	t.AddRow("max |error|", textutil.Pct(r.MaxErr))
	t.AddNote("paper: ~4.2%% average test-set prediction error")
	return t
}

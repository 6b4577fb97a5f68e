package experiments

import (
	"fmt"
	"math"

	"ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/sim"
	"ceer/internal/stats"
	"ceer/internal/textutil"
	"ceer/internal/zoo"
)

// The experiments below go beyond the paper's evaluation (DESIGN.md
// Section 6): a batch-size sensitivity study and a linear-vs-quadratic
// model-selection ablation.

// ExtBatchRow is one (batch size) sweep point.
type ExtBatchRow struct {
	Batch int64
	// BestCost is the cost-minimizing configuration at this batch size.
	BestCost cloud.Config
	// BestTime is the time-minimizing configuration.
	BestTime cloud.Config
	// CostUSD and Hours are the predicted optimum values.
	CostUSD float64
	Hours   float64
	// PerSampleMs is the predicted per-sample compute latency on the
	// cost-optimal configuration (throughput efficiency indicator).
	PerSampleMs float64
}

// ExtBatchResult is the batch-size sensitivity study: the paper fixes
// batch 32 per GPU; here the batch is swept to show how larger batches
// amortize both kernel-launch and communication overhead, shifting the
// cost-optimal instance.
type ExtBatchResult struct {
	CNN  string
	Rows []ExtBatchRow
}

// ExtBatch sweeps the per-GPU batch size for Inception-v3.
func ExtBatch(c *Context) (*ExtBatchResult, error) {
	res := &ExtBatchResult{CNN: "inception-v3"}
	for _, batch := range []int64{8, 16, 32, 64, 128} {
		g, err := zoo.Build(res.CNN, batch)
		if err != nil {
			return nil, err
		}
		comp, err := c.comp.ForGraph(g)
		if err != nil {
			return nil, err
		}
		recCost, err := comp.Recommend(g, dataset.ImageNet, cloud.OnDemand,
			cloud.Configs(4), ceer.MinimizeCost)
		if err != nil {
			return nil, err
		}
		recTime, err := comp.Recommend(g, dataset.ImageNet, cloud.OnDemand,
			cloud.Configs(4), ceer.MinimizeTime)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtBatchRow{
			Batch:       batch,
			BestCost:    recCost.Best.Cfg,
			BestTime:    recTime.Best.Cfg,
			CostUSD:     recCost.Best.CostUSD,
			Hours:       recCost.Best.TotalSeconds / 3600,
			PerSampleMs: recCost.Best.Iter.PerIterSeconds / float64(batch) * 1e3,
		})
	}
	return res, nil
}

// Table renders the batch sweep.
func (r *ExtBatchResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  fmt.Sprintf("Ext. — Batch-size sensitivity (%s, ImageNet epoch)", r.CNN),
		Header: []string{"batch/GPU", "cheapest", "cost", "hours", "ms/sample", "fastest"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Batch), row.BestCost.String(),
			textutil.USD(row.CostUSD), fmt.Sprintf("%.2f", row.Hours),
			fmt.Sprintf("%.2f", row.PerSampleMs), row.BestTime.String())
	}
	t.AddNote("per-sample cost is U-shaped: moderate batches amortize kernel-launch")
	t.AddNote("and sync overhead, while very large batches pay growing")
	t.AddNote("Conv2DBackpropFilter gradient-accumulation contention")
	return t
}

// ExtSelectionResult is the model-selection ablation: Ceer with
// automatic linear-vs-quadratic selection versus all-linear and
// all-quadratic variants, evaluated end-to-end on the test CNNs.
type ExtSelectionResult struct {
	// MeanErr maps variant name → mean absolute training-time error.
	MeanErr map[string]float64
	// QuadCount maps variant name → number of degree-2 op models.
	QuadCount map[string]int
}

// ExtSelection retrains the op models under forced degrees and compares
// test-set accuracy.
func ExtSelection(c *Context) (*ExtSelectionResult, error) {
	variants := map[string]int{"auto": 0, "all-linear": 1, "all-quadratic": 2}
	res := &ExtSelectionResult{
		MeanErr:   make(map[string]float64),
		QuadCount: make(map[string]int),
	}
	ds := dataset.ImageNetSubset6400
	var graphs []*graph.Graph
	for _, cnn := range zoo.TestSet() {
		g, err := c.Graph(cnn)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	for name, degree := range variants {
		pred, err := ceer.TrainWithDegree(c.TrainBundle, c.CommObs, degree)
		if err != nil {
			return nil, fmt.Errorf("experiments: training %s variant: %w", name, err)
		}
		for _, om := range pred.OpModels() {
			if om.Fit.Degree == 2 {
				res.QuadCount[name]++
			}
		}
		comp, err := ceer.Compile(pred, graphs)
		if err != nil {
			return nil, fmt.Errorf("experiments: compiling %s variant: %w", name, err)
		}
		var errs []float64
		for _, g := range graphs {
			for _, m := range gpu.All() {
				cfg := cloud.Config{GPU: m, K: 1}
				obs, err := sim.Train(c.Ctx, g, cfg, ds, c.MeasureIters, c.measureSeed())
				if err != nil {
					return nil, err
				}
				p, err := comp.PredictTraining(g, cfg, ds, cloud.OnDemand)
				if err != nil {
					return nil, err
				}
				errs = append(errs, math.Abs(stats.RelErr(obs.TotalSeconds, p.TotalSeconds)))
			}
		}
		res.MeanErr[name] = stats.Mean(errs)
	}
	return res, nil
}

// Table renders the selection ablation.
func (r *ExtSelectionResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Ext. — Linear-vs-quadratic model-selection ablation",
		Header: []string{"variant", "quadratic models", "mean |error|"},
	}
	for _, name := range []string{"auto", "all-linear", "all-quadratic"} {
		t.AddRow(name, fmt.Sprintf("%d", r.QuadCount[name]), textutil.Pct(r.MeanErr[name]))
	}
	t.AddNote("automatic selection (Section IV-B) uses quadratics only where they pay")
	return t
}

// ExtMemoryRow is one (CNN, batch) memory-feasibility row.
type ExtMemoryRow struct {
	CNN     string
	Batch   int64
	NeedGB  float64
	FitsGPU map[gpu.ID]bool
}

// ExtMemoryResult is the GPU-memory feasibility matrix: which (CNN,
// batch size) combinations fit on which GPU models. The paper's
// Section II instance table lists 8–16 GB of GPU memory; this extension
// makes the resulting constraint explicit.
type ExtMemoryResult struct {
	Rows []ExtMemoryRow
}

// ExtMemory computes the feasibility matrix for the test CNNs.
func ExtMemory(c *Context) (*ExtMemoryResult, error) {
	res := &ExtMemoryResult{}
	for _, name := range zoo.TestSet() {
		for _, batch := range []int64{32, 64, 128} {
			g, err := zoo.Build(name, batch)
			if err != nil {
				return nil, err
			}
			need := g.EstimateMemory()
			row := ExtMemoryRow{
				CNN: name, Batch: batch,
				NeedGB:  need.TotalGB(),
				FitsGPU: make(map[gpu.ID]bool, 4),
			}
			for _, m := range gpu.All() {
				dev, ok := gpu.Lookup(m)
				if !ok {
					return nil, fmt.Errorf("experiments: unknown GPU %v", m)
				}
				row.FitsGPU[m] = need.TotalBytes() <= int64(dev.MemoryGB)*1e9
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Table renders the feasibility matrix.
func (r *ExtMemoryResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Ext. — GPU-memory feasibility (weights + optimizer + activations)",
		Header: []string{"CNN", "batch", "need (GB)", "P3 16GB", "P2 12GB", "G4 16GB", "G3 8GB"},
	}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	for _, row := range r.Rows {
		t.AddRow(row.CNN, fmt.Sprintf("%d", row.Batch), fmt.Sprintf("%.1f", row.NeedGB),
			yn(row.FitsGPU[gpu.V100]), yn(row.FitsGPU[gpu.K80]),
			yn(row.FitsGPU[gpu.T4]), yn(row.FitsGPU[gpu.M60]))
	}
	t.AddNote("use ceer.FitsGPUMemory as a recommender constraint to exclude infeasible configs")
	return t
}

package experiments

import (
	"fmt"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/textutil"
	"ceer/internal/zoo"
)

// Fig06Cell is one (GPU model, GPU count) training-time measurement and
// prediction.
type Fig06Cell struct {
	K int
	// ObservedSeconds and PredictedSeconds are the end-to-end training
	// times over the 6,400-sample ImageNet subset.
	ObservedSeconds  float64
	PredictedSeconds float64
	// ReductionVs1 is the observed reduction relative to the same
	// model's single-GPU time.
	ReductionVs1 float64
}

// Fig06Result reproduces Figure 6: Inception-v1 training time versus
// the number of GPUs under data parallelism.
type Fig06Result struct {
	CNN    string
	PerGPU map[gpu.ID][]Fig06Cell
	// AvgReduction is the mean observed reduction across GPU models at
	// k = 2, 3, 4 (paper: 35.8%, 46.6%, 53.6%).
	AvgReduction map[int]float64
}

// Fig06 measures and predicts the data-parallel scaling of
// Inception-v1.
func Fig06(c *Context) (*Fig06Result, error) {
	g, err := c.Graph("inception-v1")
	if err != nil {
		return nil, err
	}
	ds := dataset.ImageNetSubset6400
	res := &Fig06Result{
		CNN:          "inception-v1",
		PerGPU:       make(map[gpu.ID][]Fig06Cell),
		AvgReduction: make(map[int]float64),
	}
	for _, m := range gpuOrder() {
		var base float64
		for k := 1; k <= 4; k++ {
			cfg := cloud.Config{GPU: m, K: k}
			obs, err := c.Observe(g, cfg, ds)
			if err != nil {
				return nil, err
			}
			pred, err := c.comp.PredictTraining(g, cfg, ds, cloud.OnDemand)
			if err != nil {
				return nil, err
			}
			if k == 1 {
				base = obs.TotalSeconds
			}
			cell := Fig06Cell{
				K:                k,
				ObservedSeconds:  obs.TotalSeconds,
				PredictedSeconds: pred.TotalSeconds,
				ReductionVs1:     1 - obs.TotalSeconds/base,
			}
			res.PerGPU[m] = append(res.PerGPU[m], cell)
		}
	}
	for k := 2; k <= 4; k++ {
		sum := 0.0
		for _, m := range gpuOrder() {
			sum += res.PerGPU[m][k-1].ReductionVs1
		}
		res.AvgReduction[k] = sum / 4
	}
	return res, nil
}

// Table renders the Figure 6 scaling study.
func (r *Fig06Result) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Fig. 6 — Inception-v1 training time vs #GPUs (6,400 ImageNet samples)",
		Header: []string{"GPU", "k", "observed (s)", "predicted (s)", "reduction"},
	}
	for _, m := range gpuOrder() {
		for _, cell := range r.PerGPU[m] {
			t.AddRow(m.Family(), fmt.Sprintf("%d", cell.K),
				textutil.Secs(cell.ObservedSeconds), textutil.Secs(cell.PredictedSeconds),
				textutil.Pct(cell.ReductionVs1))
		}
	}
	t.AddNote("avg reduction at k=2/3/4: %s / %s / %s (paper: 35.8%% / 46.6%% / 53.6%%)",
		textutil.Pct(r.AvgReduction[2]), textutil.Pct(r.AvgReduction[3]), textutil.Pct(r.AvgReduction[4]))
	return t
}

// Fig07Point is one CNN's communication-overhead observation.
type Fig07Point struct {
	CNN      string
	Params   int64
	Overhead float64 // seconds per iteration
}

// Fig07Series is the per-GPU overhead-vs-params relationship at one k.
type Fig07Series struct {
	GPU    gpu.ID
	Points []Fig07Point
	// Slope is seconds per parameter; R2 the linear fit quality (paper:
	// 0.88–0.98).
	Slope, Intercept, R2 float64
}

// Fig07Result reproduces Figure 7: per-iteration communication overhead
// of data parallelism (k = 2) versus the number of model parameters.
type Fig07Result struct {
	K      int
	Series []Fig07Series
}

// Fig07 measures the overhead for the 8 training CNNs at k=2 by the
// paper's subtraction method (multi-GPU per-iteration time minus
// single-GPU per-iteration time, plus the single-GPU host transfer) and
// reports the fitted linear relationship from Ceer's comm model.
func Fig07(c *Context) (*Fig07Result, error) {
	res := &Fig07Result{K: 2}
	ds := dataset.ImageNetSubset6400
	for _, m := range gpuOrder() {
		s := Fig07Series{GPU: m}
		var xs [][]float64
		var ys []float64
		for _, name := range zoo.TrainingSet() {
			g, err := c.Graph(name)
			if err != nil {
				return nil, err
			}
			obs2, err := c.Observe(g, cloud.Config{GPU: m, K: 2}, ds)
			if err != nil {
				return nil, err
			}
			overhead := obs2.PerIterSeconds - obs2.ComputeSeconds
			s.Points = append(s.Points, Fig07Point{CNN: name, Params: g.Params, Overhead: overhead})
			xs = append(xs, []float64{float64(g.Params)})
			ys = append(ys, overhead)
		}
		cm, ok := c.Pred.CommModelFor(m, 2)
		if !ok {
			return nil, fmt.Errorf("experiments: missing comm model for %s k=2", m.Family())
		}
		s.R2 = cm.Fit.RSquared(xs, ys)
		y0 := cm.Fit.Predict([]float64{0})
		y1 := cm.Fit.Predict([]float64{1e6})
		s.Intercept = y0
		s.Slope = (y1 - y0) / 1e6
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Table renders the Figure 7 overhead study.
func (r *Fig07Result) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  fmt.Sprintf("Fig. 7 — Per-iteration comm overhead vs #params (k=%d)", r.K),
		Header: []string{"GPU", "CNN", "params (M)", "overhead (ms)"},
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			t.AddRow(s.GPU.Family(), p.CNN,
				fmt.Sprintf("%.1f", float64(p.Params)/1e6), textutil.Ms(p.Overhead))
		}
	}
	for _, s := range r.Series {
		t.AddNote("%s: overhead ≈ %.2fms + %.3fms/Mparam, R^2 = %.3f (paper band: 0.88-0.98)",
			s.GPU.Family(), s.Intercept*1e3, s.Slope*1e3*1e6, s.R2)
	}
	return t
}

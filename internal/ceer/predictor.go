package ceer

import (
	"fmt"
	"sort"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/regress"
	"ceer/internal/stats"
	"ceer/internal/trace"
)

// OpModel is one fitted heavy-operation compute-time model.
type OpModel struct {
	GPU    gpu.ID
	OpType ops.Type
	// Fit is the model regress.Select chose for this op.
	Fit *regress.Model
	// TrainObs is the number of (instance) observations used.
	TrainObs int
	// Stats holds the chosen model's training-time sufficient
	// statistics, the seed for incremental recalibration (nil on
	// predictors loaded from pre-v3 files; the calibrator seeds an
	// empty accumulator from the model shape instead).
	Stats *regress.SuffStats
}

// CommModel is the fitted per-(GPU, k) communication-overhead model:
// overhead seconds as a linear function of the parameter count.
type CommModel struct {
	GPU gpu.ID
	K   int
	Fit *regress.Model
}

// CommObs is one observed per-iteration communication overhead, for one
// training-set CNN on one (GPU, k) configuration (Section IV-C). The
// paper reads it from training logs as iteration time minus summed op
// time; the campaign draws the simulated overhead itself
// (sim.CommOverhead), which that subtraction gives up to rounding. The
// JSON form is the campaign checkpoint's comm record.
type CommObs struct {
	CNN      string  `json:"cnn"`
	GPU      gpu.ID  `json:"gpu"`
	K        int     `json:"k"`
	Params   int64   `json:"params"`
	Overhead float64 `json:"overhead"` // seconds per iteration
}

// Predictor is a trained Ceer instance. Predictions are read from its
// compiled tables (Compile); PredictIterationUnfolded is the per-node
// test oracle.
type Predictor struct {
	Class *Classification
	// opModels maps GPU → heavy op type → fitted model.
	opModels map[gpu.ID]map[ops.Type]*OpModel
	// LightMedian and CPUMedian are the t̃_l and t̃_c estimators of
	// Section IV-B: GPU-, CNN-, and operation-oblivious sample medians.
	LightMedian float64
	CPUMedian   float64
	// commModels maps GPU → k → fitted overhead model.
	commModels map[gpu.ID]map[int]*CommModel
	// degraded maps devices with incomplete campaign coverage to a
	// human-readable reason. Predictions on a degraded device rest on
	// partial training data; the recommender prefers clean devices and
	// labels degraded candidates.
	degraded map[gpu.ID]string
}

// Train fits all Ceer models from an op-level profile bundle (the 8
// training CNNs × 4 GPU models) and end-to-end communication
// observations, with automatic linear-vs-quadratic selection per heavy
// operation.
func Train(bundle *trace.Bundle, commObs []CommObs) (*Predictor, error) {
	return TrainWithDegree(bundle, commObs, 0)
}

// retainedSamples gathers the retained raw samples of every series of
// one op class, in bundle order, into a slice sized up front.
func retainedSamples(bundle *trace.Bundle, class *Classification, c ops.Class) []float64 {
	n := 0
	for _, prof := range bundle.Profiles {
		for _, s := range prof.Series {
			if class.Of(s.OpType) == c {
				n += len(s.Agg.Retained())
			}
		}
	}
	out := make([]float64, 0, n)
	for _, prof := range bundle.Profiles {
		for _, s := range prof.Series {
			if class.Of(s.OpType) == c {
				out = append(out, s.Agg.Retained()...)
			}
		}
	}
	return out
}

// TrainWithDegree is Train with the per-op polynomial degree forced:
// 1 = all-linear, 2 = all-quadratic (falling back to linear only when a
// quadratic cannot be fit), 0 = automatic selection (Section IV-B).
// Forcing the degree supports the model-selection ablation.
func TrainWithDegree(bundle *trace.Bundle, commObs []CommObs, degree int) (*Predictor, error) {
	if degree < 0 || degree > 2 {
		return nil, fmt.Errorf("ceer: unsupported forced degree %d", degree)
	}
	class, err := Classify(bundle)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		Class:      class,
		opModels:   make(map[gpu.ID]map[ops.Type]*OpModel),
		commModels: make(map[gpu.ID]map[int]*CommModel),
	}

	// Heavy-op regressions, one per (GPU, type), with rows collected
	// from the bundle's observation stream — the same incremental path
	// live calibration replays. The stream's deterministic order
	// (profiles in bundle order, series in node order) is exactly the
	// row order the materialized loop used, so the fits are
	// bit-identical to the historical batch path.
	type cellRows struct {
		xs [][]float64
		ys []float64
	}
	rows := make(map[gpu.ID]map[ops.Type]*cellRows)
	if err := bundle.Observations(func(o trace.Obs) error {
		if !class.Heavy[o.Op] {
			return nil
		}
		byType := rows[o.GPU]
		if byType == nil {
			byType = make(map[ops.Type]*cellRows)
			rows[o.GPU] = byType
		}
		c := byType[o.Op]
		if c == nil {
			c = &cellRows{}
			byType[o.Op] = c
		}
		c.xs = append(c.xs, o.Features)
		c.ys = append(c.ys, o.Seconds)
		return nil
	}); err != nil {
		return nil, err
	}
	for _, m := range gpu.All() {
		byType := rows[m]
		if len(byType) == 0 {
			continue
		}
		p.opModels[m] = make(map[ops.Type]*OpModel, len(byType))
		for t, c := range byType {
			fit, st, err := regress.Select(c.xs, c.ys, degree)
			if err != nil {
				return nil, fmt.Errorf("ceer: fitting %s on %s: %w", t, m.Family(), err)
			}
			p.opModels[m][t] = &OpModel{GPU: m, OpType: t, Fit: fit, TrainObs: len(c.ys), Stats: st}
		}
	}

	// Median estimators over all light / CPU op instances across all
	// GPUs and CNNs (raw retained samples).
	lightSamples := retainedSamples(bundle, class, ops.LightGPU)
	cpuSamples := retainedSamples(bundle, class, ops.CPU)
	if len(lightSamples) == 0 || len(cpuSamples) == 0 {
		return nil, fmt.Errorf("ceer: bundle lacks light (%d) or CPU (%d) samples",
			len(lightSamples), len(cpuSamples))
	}
	p.LightMedian = stats.Median(lightSamples)
	p.CPUMedian = stats.Median(cpuSamples)

	// Communication models: per (GPU, k), linear in the parameter count.
	grouped := make(map[gpu.ID]map[int][]CommObs)
	for _, o := range commObs {
		if grouped[o.GPU] == nil {
			grouped[o.GPU] = make(map[int][]CommObs)
		}
		grouped[o.GPU][o.K] = append(grouped[o.GPU][o.K], o)
	}
	for m, byK := range grouped {
		p.commModels[m] = make(map[int]*CommModel, len(byK))
		for k, obs := range byK {
			xs := make([][]float64, len(obs))
			ys := make([]float64, len(obs))
			for i, o := range obs {
				xs[i] = []float64{float64(o.Params)}
				ys[i] = o.Overhead
			}
			fit, err := regress.Fit(xs, ys, 1)
			if err != nil {
				return nil, fmt.Errorf("ceer: fitting comm model %s k=%d: %w", m.Family(), k, err)
			}
			p.commModels[m][k] = &CommModel{GPU: m, K: k, Fit: fit}
		}
	}

	// Devices whose campaign cells went missing trained on partial
	// data: flag them degraded so serving can prefer clean devices.
	// Missing is sorted, so the derived reasons are deterministic.
	for _, m := range gpu.All() {
		if missing := bundle.MissingForGPU(m); len(missing) > 0 {
			p.setDegraded(m, fmt.Sprintf("%d campaign cells missing (e.g. %s)",
				len(missing), missing[0]))
		}
	}
	return p, nil
}

// setDegraded marks a device as trained on incomplete campaign data.
func (p *Predictor) setDegraded(m gpu.ID, reason string) {
	if p.degraded == nil {
		p.degraded = make(map[gpu.ID]string)
	}
	p.degraded[m] = reason
}

// Degraded reports whether the device's models were fit on incomplete
// campaign coverage, and why.
func (p *Predictor) Degraded(m gpu.ID) (string, bool) {
	reason, ok := p.degraded[m]
	return reason, ok
}

// DegradedDevices lists the degraded devices, sorted by ID.
func (p *Predictor) DegradedDevices() []gpu.ID {
	out := make([]gpu.ID, 0, len(p.degraded))
	for m := range p.degraded {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OpModelFor returns the heavy-op model for (GPU, type), if trained.
func (p *Predictor) OpModelFor(m gpu.ID, t ops.Type) (*OpModel, bool) {
	om, ok := p.opModels[m][t]
	return om, ok
}

// OpModels returns all heavy-op models sorted by (GPU family, type) for
// reporting.
func (p *Predictor) OpModels() []*OpModel {
	var out []*OpModel
	for _, byType := range p.opModels {
		for _, om := range byType {
			out = append(out, om)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GPU.Family() != out[j].GPU.Family() {
			return out[i].GPU.Family() < out[j].GPU.Family()
		}
		return out[i].OpType < out[j].OpType
	})
	return out
}

// CommModelFor returns the communication model for (GPU, k), if trained.
func (p *Predictor) CommModelFor(m gpu.ID, k int) (*CommModel, bool) {
	cm, ok := p.commModels[m][k]
	return cm, ok
}

// PredictComm evaluates S_GPU(CNN): the predicted per-iteration
// communication overhead for a model with the given parameter count.
func (p *Predictor) PredictComm(m gpu.ID, k int, params int64) (float64, error) {
	cm, ok := p.commModels[m][k]
	if !ok {
		return 0, fmt.Errorf("ceer: no communication model for %s k=%d", m.Family(), k)
	}
	s := cm.Fit.Predict([]float64{float64(params)})
	if s < 0 {
		s = 0
	}
	return s, nil
}

// Variant selects which model components a prediction uses, enabling
// the paper's ablation studies (Sections IV-A and IV-B).
type Variant int

const (
	// Full is the complete Ceer model of Eq. (2).
	Full Variant = iota
	// NoComm drops the communication overhead S_GPU(CNN) — Eq. (1).
	NoComm
	// HeavyOnly drops the light-GPU and CPU medians.
	HeavyOnly
	// HeavyOnlyNoComm drops both.
	HeavyOnlyNoComm
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Full:
		return "full"
	case NoComm:
		return "no-comm"
	case HeavyOnly:
		return "heavy-only"
	case HeavyOnlyNoComm:
		return "heavy-only-no-comm"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// IterPrediction decomposes a predicted per-iteration training time.
type IterPrediction struct {
	// HeavySeconds, LightSeconds, CPUSeconds, CommSeconds decompose
	// PerIterSeconds.
	HeavySeconds float64
	LightSeconds float64
	CPUSeconds   float64
	CommSeconds  float64
	// PerIterSeconds is the Eq. (2) parenthesized term.
	PerIterSeconds float64
	// UnseenHeavy lists heavy op types for which no trained model
	// exists; their instances were estimated with the light median and
	// the prediction should be treated as degraded (Section IV-D).
	UnseenHeavy []ops.Type
}

// PredictIterationUnfolded predicts the per-iteration training time of
// the CNN graph on k GPUs of the given model, per Eq. (2)'s
// parenthesized term, the naive way: one model evaluation per DAG node,
// no fold, no table. It is the test oracle the compiled tables
// (CompiledPredictor) are checked against; serving never calls it.
func (p *Predictor) PredictIterationUnfolded(g *graph.Graph, m gpu.ID, k int, v Variant) (IterPrediction, error) {
	var out IterPrediction
	unseen := make(map[ops.Type]bool)
	for _, n := range g.Nodes() {
		t := n.Op.Type
		switch p.Class.Of(t) {
		case ops.HeavyGPU:
			om, ok := p.opModels[m][t]
			if !ok {
				unseen[t] = true
				if v == Full || v == NoComm {
					out.HeavySeconds += p.LightMedian
				}
				continue
			}
			pred := om.Fit.Predict(n.Op.Features())
			if pred < 0 {
				pred = 0
			}
			out.HeavySeconds += pred
		case ops.LightGPU:
			if v == Full || v == NoComm {
				out.LightSeconds += p.LightMedian
			}
		case ops.CPU:
			if v == Full || v == NoComm {
				out.CPUSeconds += p.CPUMedian
			}
		}
	}
	if v == Full || v == HeavyOnly {
		s, err := p.PredictComm(m, k, g.Params)
		if err != nil {
			return IterPrediction{}, err
		}
		out.CommSeconds = s
	}
	out.PerIterSeconds = out.HeavySeconds + out.LightSeconds + out.CPUSeconds + out.CommSeconds
	for t := range unseen {
		out.UnseenHeavy = append(out.UnseenHeavy, t)
	}
	sortTypes(out.UnseenHeavy)
	return out, nil
}

// Prediction is a full training-time and cost prediction for one
// configuration.
type Prediction struct {
	CNN  string
	Cfg  cloud.Config
	Iter IterPrediction
	// Iterations is D/(k·B).
	Iterations int64
	// TotalSeconds is the predicted one-epoch training time T.
	TotalSeconds float64
	// HourlyUSD and CostUSD give the configuration's price and the
	// predicted training cost C = T × c.
	HourlyUSD float64
	CostUSD   float64
}

// finishPrediction extends a per-iteration prediction to one epoch's
// time and cost.
func (p *Predictor) finishPrediction(g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, pricing cloud.Pricing, iter IterPrediction) (Prediction, error) {
	hourly, err := cfg.HourlyCost(pricing)
	if err != nil {
		return Prediction{}, err
	}
	iters := ds.Iterations(cfg.K, g.BatchSize)
	total := iter.PerIterSeconds * float64(iters)
	return Prediction{
		CNN:          g.Name,
		Cfg:          cfg,
		Iter:         iter,
		Iterations:   iters,
		TotalSeconds: total,
		HourlyUSD:    hourly,
		CostUSD:      total / 3600 * hourly,
	}, nil
}

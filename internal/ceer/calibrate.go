package ceer

// The observe→predict→calibrate loop. A Calibrator consumes live op
// timing observations (trace.Obs), folds each into the matching
// per-(device, op type) sufficient statistics as a rank-1 update,
// tracks the model's live residuals through the drift statistics
// (internal/drift), and — when a cell drifts or its refit interval
// elapses — re-solves that cell's model from the accumulated
// statistics and publishes a recalibrated predictor. Publication is
// copy-on-write: the served Predictor is never mutated; a refit clones
// it with the one op model replaced, and, when a CompiledBox is bound,
// re-evaluates that model's run of the serving tables and atomically
// hot-swaps them so concurrent readers never observe a half-updated
// model.
//
// Everything is deterministic: the same observation sequence against
// the same starting predictor produces the same refits, the same
// coefficients, and the same report, byte for byte.

import (
	"fmt"
	"io"
	"sort"

	"ceer/internal/drift"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/regress"
	"ceer/internal/trace"
)

// CalibrationPolicy fixes the calibration loop's thresholds.
type CalibrationPolicy struct {
	// Drift holds the windowed drift thresholds.
	Drift drift.Policy
	// RefitEvery forces a refit after this many applied observations
	// per cell even without drift (0 disables scheduled refits; drift
	// still triggers them).
	RefitEvery int
	// MinRefitObs is the minimum accumulated observation count before
	// a cell may refit; values below the model's parameter count are
	// raised to it (a solve needs at least that many).
	MinRefitObs int
}

// DefaultCalibrationPolicy pairs the default drift thresholds with
// drift-triggered refits only.
func DefaultCalibrationPolicy() CalibrationPolicy {
	return CalibrationPolicy{Drift: drift.DefaultPolicy()}
}

// Validate rejects unusable policies.
func (p CalibrationPolicy) Validate() error {
	if err := p.Drift.Validate(); err != nil {
		return err
	}
	if p.RefitEvery < 0 {
		return fmt.Errorf("ceer: calibration RefitEvery %d must be non-negative", p.RefitEvery)
	}
	if p.MinRefitObs < 0 {
		return fmt.Errorf("ceer: calibration MinRefitObs %d must be non-negative", p.MinRefitObs)
	}
	return nil
}

// calibKey identifies one calibration cell.
type calibKey struct {
	gpu gpu.ID
	op  ops.Type
}

// calibCell is the mutable calibration state of one (device, op type)
// model.
type calibCell struct {
	stats *regress.SuffStats
	// window holds the live model's residuals; a refit empties it.
	window     drift.Window
	applied    int // observations folded into this cell
	sinceRefit int
	refits     int
	// driftEvents counts entries into the drifted state, an onset being
	// a drifted verdict after one that was not; firstDrift is the
	// 1-based applied index at the first entry (0 = never).
	driftEvents int
	firstDrift  int
	// last is the latest verdict, reset by a refit.
	last drift.Verdict
}

// Calibrator drives the observe→predict→calibrate loop over one
// predictor. Not safe for concurrent use: observations are a single
// ordered stream (concurrent readers of the published predictor are
// fine — that is the CompiledBox contract). Bound to a CompiledBox, it
// keeps the tables it last published, and a refit derives the next
// tables from them (CompiledPredictor.withRefit) instead of compiling
// the graph set again.
type Calibrator struct {
	pol  CalibrationPolicy
	pred *Predictor

	// box is the bound hot-swap target and tables what it last received
	// (both nil until BindBox).
	box    *CompiledBox
	tables *CompiledPredictor

	cells map[calibKey]*calibCell

	seen             int
	applied          int
	skippedClass     int
	skippedUnmodeled int
	skippedShape     int
	dropped          int
	refits           int
	failedRefits     int
	swaps            int
}

// NewCalibrator wraps a trained predictor for calibration.
func NewCalibrator(p *Predictor, pol CalibrationPolicy) (*Calibrator, error) {
	if p == nil {
		return nil, fmt.Errorf("ceer: calibrating a nil predictor")
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Calibrator{pol: pol, pred: p, cells: make(map[calibKey]*calibCell)}, nil
}

// BindBox attaches a hot-swap target: the current predictor is compiled
// over the given graphs and Stored into the box immediately, so readers
// have tables before the first observation arrives, and after every
// successful refit the box receives those tables with the re-solved
// (device, op type) run re-evaluated. The tables keep the device set
// compiled here: a device registered after BindBox is not added by a
// refit.
func (c *Calibrator) BindBox(box *CompiledBox, graphs []*graph.Graph) error {
	cp, err := Compile(c.pred, graphs)
	if err != nil {
		return err
	}
	c.box = box
	c.tables = cp
	box.Store(cp)
	return nil
}

// Predictor returns the current (latest recalibrated) predictor.
func (c *Calibrator) Predictor() *Predictor { return c.pred }

// cell returns (creating on first touch) the calibration state for an
// op model, seeded from the model's persisted training statistics when
// present (a v3 predictor) or an empty accumulator of the model's
// shape otherwise (v2).
func (c *Calibrator) cell(om *OpModel) (*calibCell, error) {
	key := calibKey{om.GPU, om.OpType}
	if cl, ok := c.cells[key]; ok {
		return cl, nil
	}
	var st *regress.SuffStats
	var err error
	if om.Stats != nil {
		// Clone: calibration must not mutate the accumulator owned by
		// the (possibly still serving) predictor.
		st, err = om.Stats.Clone()
	} else {
		st, err = regress.StatsForModel(om.Fit)
	}
	if err != nil {
		return nil, fmt.Errorf("ceer: seeding calibration stats for %s/%s: %w", om.GPU, om.OpType, err)
	}
	cl := &calibCell{stats: st, window: drift.NewWindow(c.pol.Drift.Window)}
	c.cells[key] = cl
	return cl, nil
}

// Calibrate folds one observation into the loop: residual tracking,
// rank-1 statistics update, drift evaluation, and (when triggered) a
// refit plus hot-swap. Non-heavy and unmodeled observations are
// counted and skipped — the loop only maintains models that exist.
func (c *Calibrator) Calibrate(o trace.Obs) error {
	c.seen++
	if err := o.Validate(); err != nil {
		return err
	}
	if c.pred.Class.Of(o.Op) != ops.HeavyGPU {
		c.skippedClass++
		return nil
	}
	om, ok := c.pred.OpModelFor(o.GPU, o.Op)
	if !ok {
		c.skippedUnmodeled++
		return nil
	}
	if len(o.Features) != om.Fit.NumFeatures {
		c.skippedShape++
		return nil
	}
	cl, err := c.cell(om)
	if err != nil {
		return err
	}

	// Observe: residual of the live model, clamped like the serving
	// path clamps.
	pred := om.Fit.Predict(o.Features)
	if pred < 0 {
		pred = 0
	}
	cl.window.Add(pred, o.Seconds)
	cl.stats.Add(o.Features, o.Seconds)
	cl.applied++
	cl.sinceRefit++
	c.applied++

	// Judge.
	v := drift.Evaluate(c.pol.Drift, &cl.window)
	if v.Drifted && !cl.last.Drifted {
		cl.driftEvents++
		if cl.firstDrift == 0 {
			cl.firstDrift = cl.applied
		}
	}
	cl.last = v

	// Refit when drifted or scheduled, once enough data accumulated.
	due := v.Drifted || (c.pol.RefitEvery > 0 && cl.sinceRefit >= c.pol.RefitEvery)
	minObs := c.pol.MinRefitObs
	if minObs < cl.stats.NumParams() {
		minObs = cl.stats.NumParams()
	}
	if !due || cl.stats.N() < minObs {
		return nil
	}
	return c.refit(om, cl)
}

// refit re-solves one cell's model from its accumulated statistics and
// publishes the recalibrated predictor.
func (c *Calibrator) refit(om *OpModel, cl *calibCell) error {
	model, err := cl.stats.Solve()
	if err != nil {
		// A singular accumulation cannot produce a better model; keep
		// serving the current one and try again as data arrives.
		c.failedRefits++
		cl.sinceRefit = 0
		return nil
	}
	stats, err := cl.stats.Clone()
	if err != nil {
		return fmt.Errorf("ceer: snapshotting recalibrated stats for %s/%s: %w", om.GPU, om.OpType, err)
	}
	next := &OpModel{
		GPU:      om.GPU,
		OpType:   om.OpType,
		Fit:      model,
		TrainObs: cl.stats.N(),
		Stats:    stats,
	}
	pred := c.pred.withOpModel(next)
	if c.box != nil {
		tables, err := c.tables.withRefit(pred, next)
		if err != nil {
			return fmt.Errorf("ceer: updating tables for recalibrated %s/%s: %w", om.GPU, om.OpType, err)
		}
		c.tables = tables
		c.box.Store(tables)
		c.swaps++
	}
	c.pred = pred
	cl.refits++
	cl.sinceRefit = 0
	cl.window.Reset()
	cl.last = drift.Verdict{}
	c.refits++
	return nil
}

// withOpModel returns a copy-on-write clone of the predictor with one
// op model replaced. The clone gets fresh op-model maps;
// classification, comm models, medians, and degraded flags are shared —
// they are immutable after training.
func (p *Predictor) withOpModel(next *OpModel) *Predictor {
	q := &Predictor{
		Class:       p.Class,
		opModels:    make(map[gpu.ID]map[ops.Type]*OpModel, len(p.opModels)),
		commModels:  p.commModels,
		LightMedian: p.LightMedian,
		CPUMedian:   p.CPUMedian,
		degraded:    p.degraded,
	}
	for m, byType := range p.opModels {
		inner := make(map[ops.Type]*OpModel, len(byType))
		for t, om := range byType {
			inner[t] = om
		}
		q.opModels[m] = inner
	}
	if q.opModels[next.GPU] == nil {
		q.opModels[next.GPU] = make(map[ops.Type]*OpModel)
	}
	q.opModels[next.GPU][next.OpType] = next
	return q
}

// Replay streams a JSONL observation log through the calibrator. A
// non-nil injector subjects each observation to deterministic fault
// injection (stage "calibrate", the observation's 1-based index as K):
// transient and permanent faults drop that observation — the loop
// degrades gracefully, counting the loss — while a preemption aborts
// the replay with the injected error.
func (c *Calibrator) Replay(r io.Reader, inj *faults.Injector) error {
	or := trace.NewObsReader(r)
	idx := 0
	for {
		o, _, err := or.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		idx++
		if inj != nil {
			fop := faults.Op{Stage: "calibrate", CNN: o.CNN, Device: string(o.GPU), K: idx, Attempt: 1}
			if _, ferr := inj.Inject(fop); ferr != nil {
				if faults.IsPreempted(ferr) {
					return ferr
				}
				c.seen++
				c.dropped++
				continue
			}
		}
		if err := c.Calibrate(o); err != nil {
			return err
		}
	}
}

// CellReport is the per-(device, op type) slice of a CalibrationReport.
type CellReport struct {
	GPU    gpu.ID   `json:"gpu"`
	OpType ops.Type `json:"op"`
	// Applied counts observations folded into the cell; TrainObs is
	// the accumulator's total (training seed plus applied).
	Applied  int `json:"applied"`
	TrainObs int `json:"train_obs"`
	// Refits counts re-solves; DriftEvents counts entries into the
	// drifted state; FirstDriftObs is the 1-based applied index at the
	// first drift onset (0 = never drifted).
	Refits        int `json:"refits"`
	DriftEvents   int `json:"drift_events"`
	FirstDriftObs int `json:"first_drift_obs"`
	// Drifted, MAPE, MaxSignRun, WindowFill snapshot the latest drift
	// verdict.
	Drifted    bool    `json:"drifted"`
	MAPE       float64 `json:"mape"`
	MaxSignRun int     `json:"max_sign_run"`
	WindowFill int     `json:"window_fill"`
}

// CalibrationReport is the structured outcome of a calibration run.
type CalibrationReport struct {
	// Observations counts every record offered; Applied the ones folded
	// into a cell; the Skipped counters the ones ignored by class,
	// missing model, or feature arity; Dropped the ones lost to
	// injected faults.
	Observations     int `json:"observations"`
	Applied          int `json:"applied"`
	SkippedClass     int `json:"skipped_class"`
	SkippedUnmodeled int `json:"skipped_unmodeled"`
	SkippedShape     int `json:"skipped_shape"`
	Dropped          int `json:"dropped"`
	// Refits and FailedRefits count re-solves across all cells; Swaps
	// counts CompiledBox publications.
	Refits       int `json:"refits"`
	FailedRefits int `json:"failed_refits"`
	Swaps        int `json:"swaps"`
	// Cells reports every touched cell, sorted by (device, op type).
	Cells []CellReport `json:"cells"`
}

// Report snapshots the calibration state. Cells are sorted by (device
// ID, op type), so the report is deterministic.
func (c *Calibrator) Report() CalibrationReport {
	rep := CalibrationReport{
		Observations:     c.seen,
		Applied:          c.applied,
		SkippedClass:     c.skippedClass,
		SkippedUnmodeled: c.skippedUnmodeled,
		SkippedShape:     c.skippedShape,
		Dropped:          c.dropped,
		Refits:           c.refits,
		FailedRefits:     c.failedRefits,
		Swaps:            c.swaps,
	}
	for key, cl := range c.cells {
		rep.Cells = append(rep.Cells, CellReport{
			GPU:           key.gpu,
			OpType:        key.op,
			Applied:       cl.applied,
			TrainObs:      cl.stats.N(),
			Refits:        cl.refits,
			DriftEvents:   cl.driftEvents,
			FirstDriftObs: cl.firstDrift,
			Drifted:       cl.last.Drifted,
			MAPE:          cl.last.MAPE,
			MaxSignRun:    cl.last.MaxSignRun,
			WindowFill:    cl.last.WindowFill,
		})
	}
	sort.Slice(rep.Cells, func(i, j int) bool {
		if rep.Cells[i].GPU != rep.Cells[j].GPU {
			return rep.Cells[i].GPU < rep.Cells[j].GPU
		}
		return rep.Cells[i].OpType < rep.Cells[j].OpType
	})
	return rep
}

// Render writes the report as deterministic plain text.
func (r CalibrationReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "calibration: %d observations, %d applied, %d skipped (%d class, %d unmodeled, %d shape), %d dropped\n",
		r.Observations, r.Applied, r.SkippedClass+r.SkippedUnmodeled+r.SkippedShape,
		r.SkippedClass, r.SkippedUnmodeled, r.SkippedShape, r.Dropped); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "refits: %d (%d failed), hot-swaps: %d\n", r.Refits, r.FailedRefits, r.Swaps); err != nil {
		return err
	}
	for _, cl := range r.Cells {
		status := "ok"
		if cl.Drifted {
			status = "DRIFTED"
		}
		// The stable registry ID, not the marketing name: reports must
		// key devices the way the persisted predictor does.
		if _, err := fmt.Fprintf(w, "%-6s %-22s %-7s applied=%d refits=%d drift_events=%d first_drift=%d mape=%.4f sign_run=%d window=%d train_obs=%d\n",
			string(cl.GPU), cl.OpType, status, cl.Applied, cl.Refits, cl.DriftEvents, cl.FirstDriftObs,
			cl.MAPE, cl.MaxSignRun, cl.WindowFill, cl.TrainObs); err != nil {
			return err
		}
	}
	return nil
}

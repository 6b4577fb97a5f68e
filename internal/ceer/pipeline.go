package ceer

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ceer/internal/cloud"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/par"
	"ceer/internal/retry"
	"ceer/internal/sim"
	"ceer/internal/trace"
)

// Pipeline drives the full measurement-and-training campaign of
// Sections III and IV: profile the training-set CNNs on every GPU
// model, measure multi-GPU runs to obtain communication-overhead
// observations, and fit all Ceer models.
type Pipeline struct {
	// Seed drives the simulated measurement noise.
	Seed uint64
	// ProfileIterations is the op-level profiling depth (the paper uses
	// 1,000 iterations).
	ProfileIterations int
	// CommIterations is the number of iterations measured per
	// (CNN, GPU, k) for the communication observations.
	CommIterations int
	// Batch is the per-GPU batch size (the paper's default is 32).
	Batch int64
	// MaxK is the largest GPU count measured for the comm model.
	MaxK int
	// Retain caps raw samples kept per op for the median estimators.
	Retain int
	// Devices selects which registered GPU devices the campaign
	// profiles and measures. nil means every registered device
	// (gpu.All()) in registration order.
	Devices []gpu.ID
	// Workers bounds the campaign's parallelism across independent
	// (CNN, GPU) profiles and (CNN, GPU, k) training measurements:
	// <= 0 selects GOMAXPROCS, 1 preserves the serial code path. Any
	// worker count produces byte-identical bundles and observations
	// because all measurement noise is derived from (seed, CNN, GPU,
	// node) and results are collected in input order.
	Workers int
	// Retry governs per-cell fault handling: transient failures retry
	// with deterministic backoff up to the policy's attempt budget. The
	// zero value allows one attempt per cell with no retries, exactly
	// the pre-resilience behaviour.
	Retry retry.Policy
	// Faults optionally injects deterministic faults into every
	// campaign cell (nil injects nothing). Injection outcomes are a
	// pure function of (spec, cell, attempt), never of scheduling, so a
	// faulted campaign remains byte-reproducible at any worker count.
	Faults *faults.Injector
	// CheckpointPath, when non-empty, journals every completed cell
	// (and every consumed attempt) to the named file. A campaign
	// aborted by preemption resumes from the checkpoint without
	// re-measuring completed cells, and resumed cells continue at the
	// attempt after their last consumed one, so one-shot preemption
	// points do not re-fire.
	CheckpointPath string
}

// DefaultPipeline returns the paper's configuration. A moderate
// profiling depth is statistically equivalent to the paper's 1,000
// iterations here because heavy-op noise is tight; raise
// ProfileIterations for the variability study.
func DefaultPipeline(seed uint64) Pipeline {
	return Pipeline{
		Seed:              seed,
		ProfileIterations: 200,
		CommIterations:    30,
		Batch:             32,
		MaxK:              4,
		Retain:            64,
	}
}

// DefaultRetryPolicy returns the campaign's standard fault handling:
// retries+1 total attempts per cell, exponential backoff from 10ms
// capped at 500ms with ±25% seeded jitter, transient faults retried,
// preemptions aborting the run, and everything else failing the cell.
func DefaultRetryPolicy(seed uint64, retries int) retry.Policy {
	return retry.Policy{
		MaxAttempts: retries + 1,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		JitterFrac:  0.25,
		Seed:        seed ^ 0xBACC0FF,
		Classify:    retry.FaultErrors,
	}
}

// devices resolves the campaign's device set.
func (pl Pipeline) devices() []gpu.ID {
	if pl.Devices != nil {
		return pl.Devices
	}
	return gpu.All()
}

// Build is the graph-construction callback (normally zoo.Build).
type Build func(name string, batch int64) (*graph.Graph, error)

// Coverage summarizes how completely a campaign measured its cells.
type Coverage struct {
	// ProfileCells and CommCells count the campaign's op-profile and
	// communication cells; the Missing counters say how many produced
	// no surviving observation.
	ProfileCells   int
	ProfileMissing int
	CommCells      int
	CommMissing    int
	// Retries counts failed attempts observed during this run,
	// including ones a later attempt recovered from.
	Retries int
	// Resumed counts cells restored from a checkpoint instead of
	// re-measured.
	Resumed int
}

// Complete reports whether every cell produced an observation.
func (c Coverage) Complete() bool { return c.ProfileMissing == 0 && c.CommMissing == 0 }

// String renders a one-line coverage summary.
func (c Coverage) String() string {
	return fmt.Sprintf("profiles %d/%d, comm %d/%d, retries %d, resumed %d",
		c.ProfileCells-c.ProfileMissing, c.ProfileCells,
		c.CommCells-c.CommMissing, c.CommCells, c.Retries, c.Resumed)
}

// CampaignResult is a measurement campaign's full outcome: the profile
// bundle (whose Missing list names uncovered cells), the communication
// observations, and the coverage summary.
type CampaignResult struct {
	Bundle   *trace.Bundle
	CommObs  []CommObs
	Coverage Coverage
}

// CollectCommObs measures the per-iteration communication overhead of
// each CNN on each (GPU, k) configuration (Section IV-C): the comm term
// of a sim.Train run of the cell, drawn alone by sim.CommOverhead. The
// (CNN, GPU, k) measurements are independent and fan out over Workers
// goroutines; the observation order (names-major, then GPU, then k)
// matches the serial run exactly. This path is fault-free; Campaign is
// the resilient entry point.
func (pl Pipeline) CollectCommObs(ctx context.Context, build Build, names []string) ([]CommObs, error) {
	graphs, err := pl.buildGraphs(ctx, build, names)
	if err != nil {
		return nil, err
	}
	cells := pl.commCells(names, graphs)
	return par.Map(ctx, pl.Workers, len(cells), func(ctx context.Context, i int) (CommObs, error) {
		return pl.measureComm(ctx, cells[i])
	})
}

// buildGraphs constructs the named CNNs at the campaign batch size.
// Build failures are programmer errors (unknown architecture), not
// measurement faults, so they fail the campaign outright.
func (pl Pipeline) buildGraphs(ctx context.Context, build Build, names []string) ([]*graph.Graph, error) {
	return par.Map(ctx, pl.Workers, len(names), func(_ context.Context, i int) (*graph.Graph, error) {
		g, err := build(names[i], pl.Batch)
		if err != nil {
			return nil, fmt.Errorf("ceer: building %s: %w", names[i], err)
		}
		return g, nil
	})
}

// profCell is one op-profiling cell of the campaign grid.
type profCell struct {
	name string
	g    *graph.Graph
	m    gpu.ID
}

func (c profCell) op(attempt int) faults.Op {
	return faults.Op{Stage: "profile", CNN: c.name, Device: string(c.m), Attempt: attempt}
}

// commCell is one communication-measurement cell.
type commCell struct {
	name string
	g    *graph.Graph
	m    gpu.ID
	k    int
}

func (c commCell) op(attempt int) faults.Op {
	return faults.Op{Stage: "comm", CNN: c.name, Device: string(c.m), K: c.k, Attempt: attempt}
}

func (pl Pipeline) profCells(names []string, graphs []*graph.Graph) []profCell {
	var cells []profCell
	for i, name := range names {
		for _, m := range pl.devices() {
			cells = append(cells, profCell{name, graphs[i], m})
		}
	}
	return cells
}

func (pl Pipeline) commCells(names []string, graphs []*graph.Graph) []commCell {
	var cells []commCell
	for i, name := range names {
		for _, m := range pl.devices() {
			for k := 1; k <= pl.MaxK; k++ {
				cells = append(cells, commCell{name, graphs[i], m, k})
			}
		}
	}
	return cells
}

// measureComm runs one communication cell.
func (pl Pipeline) measureComm(ctx context.Context, c commCell) (CommObs, error) {
	overhead, err := sim.CommOverhead(ctx, c.g, cloud.Config{GPU: c.m, K: c.k}, pl.CommIterations, pl.Seed+7)
	if err != nil {
		return CommObs{}, err
	}
	return CommObs{
		CNN:      c.name,
		GPU:      c.m,
		K:        c.k,
		Params:   c.g.Params,
		Overhead: overhead,
	}, nil
}

// campaignState carries the per-run resilience bookkeeping shared by
// both campaign stages.
type campaignState struct {
	cp      *checkpoint
	retries *atomic.Int64
}

// runCells executes one campaign stage's cells, returning input-ordered
// results and per-cell final errors. Each attempt restores a
// checkpointed result, or takes the attempt's injected fault and
// straggler delay and then measures the cell with fn. Every failed
// attempt is counted (and journaled) before the retry policy decides
// what to do next, and a cell resumed from a checkpoint starts at the
// attempt after its last consumed one. A cell error the policy
// classifies as Abort stops the stage.
func runCells[T any](ctx context.Context, pl Pipeline, st campaignState, n int,
	opAt func(i, attempt int) faults.Op,
	restore func(key string) (T, bool),
	fn func(ctx context.Context, i int, op faults.Op) (T, error)) ([]T, []error, error) {
	return par.MapPartial(ctx, pl.Workers, n, func(ctx context.Context, i int) (T, error) {
		key := opAt(i, 1).CellKey()
		measure := func(attempt int) (T, error) {
			if v, ok := restore(key); ok {
				return v, nil
			}
			var zero T
			op := opAt(i, attempt)
			delay, ferr := pl.Faults.Inject(op)
			if delay > 0 {
				if err := pl.Retry.Wait(ctx, delay); err != nil {
					return zero, err
				}
			}
			if ferr != nil {
				return zero, ferr
			}
			return fn(ctx, i, op)
		}
		var out T
		err := pl.Retry.Do(ctx, key, st.cp.consumed(key)+1, func(attempt int) error {
			v, err := measure(attempt)
			if err != nil {
				st.retries.Add(1)
				if st.cp != nil {
					st.cp.noteAttempt(key, attempt)
				}
				return err
			}
			out = v
			return nil
		})
		if err != nil && pl.Retry.Classify != nil && pl.Retry.Classify(err) == retry.Abort {
			return out, par.Abort(err)
		}
		return out, err
	})
}

// Campaign runs the measurement campaign: op-level profiles plus
// communication observations, without fitting models. Both stages
// share one graph.BuildCache, so each architecture is constructed
// exactly once per campaign.
//
// The campaign degrades gracefully instead of aborting: a cell whose
// attempts are exhausted (or that fails permanently) is recorded in
// the bundle's Missing list and the coverage summary, and measurement
// continues. Only preemption (faults.Preempted), context
// cancellation, and infrastructure errors (checkpoint I/O, graph
// construction) abort the run. With a checkpoint configured, an
// aborted campaign resumes where it stopped.
func (pl Pipeline) Campaign(ctx context.Context, build Build, names []string) (res *CampaignResult, retErr error) {
	cache := graph.NewBuildCache(graph.BuildFunc(build))
	graphs, err := pl.buildGraphs(ctx, cache.Build, names)
	if err != nil {
		return nil, err
	}

	st := campaignState{retries: new(atomic.Int64)}
	resumed := 0
	if pl.CheckpointPath != "" {
		st.cp, resumed, err = openCheckpoint(pl.CheckpointPath, pl.checkpointHeader())
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := st.cp.close(); cerr != nil && retErr == nil {
				res, retErr = nil, cerr
			}
		}()
	}

	// Stage 1: op-level profiles, one cell per (CNN, device).
	prof := &sim.Profiler{Seed: pl.Seed, Iterations: pl.ProfileIterations, Retain: pl.Retain, Workers: pl.Workers}
	pCells := pl.profCells(names, graphs)
	profiles, profErrs, abortErr := runCells(ctx, pl, st, len(pCells),
		func(i, attempt int) faults.Op { return pCells[i].op(attempt) },
		func(key string) (*trace.Profile, bool) { return st.cp.restoreProfile(key) },
		func(ctx context.Context, i int, op faults.Op) (*trace.Profile, error) {
			p, err := prof.Profile(ctx, pCells[i].g, pCells[i].m)
			if err != nil {
				return nil, err
			}
			if st.cp != nil {
				if err := st.cp.recordProfile(op.CellKey(), p); err != nil {
					return nil, par.Abort(err)
				}
			}
			return p, nil
		})
	if abortErr != nil {
		return nil, abortErr
	}

	bundle := &trace.Bundle{}
	for i, p := range profiles {
		if profErrs[i] == nil {
			bundle.Add(p)
			continue
		}
		bundle.AddMissing(trace.MissingCell{CNN: pCells[i].name, GPU: pCells[i].m, Reason: profErrs[i].Error()})
	}

	// Stage 2: communication observations, one cell per (CNN, device, k).
	cCells := pl.commCells(names, graphs)
	obs, commErrs, abortErr := runCells(ctx, pl, st, len(cCells),
		func(i, attempt int) faults.Op { return cCells[i].op(attempt) },
		func(key string) (CommObs, bool) { return st.cp.restoreComm(key) },
		func(ctx context.Context, i int, op faults.Op) (CommObs, error) {
			o, err := pl.measureComm(ctx, cCells[i])
			if err != nil {
				return CommObs{}, err
			}
			if st.cp != nil {
				if err := st.cp.recordComm(op.CellKey(), o); err != nil {
					return CommObs{}, par.Abort(err)
				}
			}
			return o, nil
		})
	if abortErr != nil {
		return nil, abortErr
	}

	var commObs []CommObs
	commMissing := 0
	for i, o := range obs {
		if commErrs[i] == nil {
			commObs = append(commObs, o)
			continue
		}
		commMissing++
		bundle.AddMissing(trace.MissingCell{CNN: cCells[i].name, GPU: cCells[i].m, K: cCells[i].k, Reason: commErrs[i].Error()})
	}

	return &CampaignResult{
		Bundle:  bundle,
		CommObs: commObs,
		Coverage: Coverage{
			ProfileCells:   len(pCells),
			ProfileMissing: len(pCells) - len(bundle.Profiles),
			CommCells:      len(cCells),
			CommMissing:    commMissing,
			Retries:        int(st.retries.Load()),
			Resumed:        resumed,
		},
	}, nil
}

// TrainOn runs the full campaign over the named training-set CNNs and
// returns both the trained predictor and the campaign result (bundle,
// observations, coverage). Devices with missing cells are flagged
// degraded on the predictor rather than failing training, as long as
// enough data survives to fit the models at all.
func (pl Pipeline) TrainOn(ctx context.Context, build Build, names []string) (*Predictor, *CampaignResult, error) {
	res, err := pl.Campaign(ctx, build, names)
	if err != nil {
		return nil, nil, err
	}
	pred, err := Train(res.Bundle, res.CommObs)
	if err != nil {
		return nil, nil, err
	}
	return pred, res, nil
}

// EvaluateOpModels measures each heavy-op model's held-out accuracy on
// a test bundle (profiles of the test-set CNNs), returning the MAPE per
// (GPU, op type) — the 2%–10% per-op validation of Section IV-B.
func (p *Predictor) EvaluateOpModels(test *trace.Bundle) []OpModelEval {
	var out []OpModelEval
	for _, om := range p.OpModels() {
		var xs [][]float64
		var ys []float64
		for _, prof := range test.ForGPU(om.GPU) {
			for _, s := range prof.Series {
				if s.OpType == om.OpType {
					xs = append(xs, s.Features)
					ys = append(ys, s.Agg.Mean())
				}
			}
		}
		if len(xs) == 0 {
			continue
		}
		out = append(out, OpModelEval{
			GPU:      om.GPU,
			OpType:   om.OpType,
			Degree:   om.Fit.Degree,
			TrainR2:  om.Fit.R2,
			TestMAPE: om.Fit.MAPE(xs, ys),
			TestObs:  len(xs),
		})
	}
	return out
}

// OpModelEval is one heavy-op model's quality summary.
type OpModelEval struct {
	GPU      gpu.ID
	OpType   ops.Type
	Degree   int
	TrainR2  float64
	TestMAPE float64
	TestObs  int
}

// Package experiments regenerates every table and figure of the
// paper's empirical study (Section III) and evaluation (Section V),
// plus the Section IV model-quality and ablation analyses. Each
// experiment returns a structured result with a Table renderer printing
// the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"

	"ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/sim"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// Context carries a trained Ceer instance, the training-set profile
// bundle, and the simulation parameters shared by all experiments.
type Context struct {
	// Ctx bounds every measurement the experiments run (deadlines,
	// cancellation). NewContext sets it; it is never nil.
	Ctx context.Context
	// Pred is Ceer trained on the 8 training-set CNNs.
	Pred *ceer.Predictor
	// TrainBundle holds the op-level profiles of the training CNNs.
	TrainBundle *trace.Bundle
	// Coverage summarizes the training campaign's cell coverage;
	// incomplete coverage means Pred carries degraded devices.
	Coverage ceer.Coverage
	// Seed drives all "observed" measurement noise; experiment
	// measurements use seeds derived from it, distinct from the
	// training seed.
	Seed uint64
	// MeasureIters is the per-measurement iteration sample count.
	MeasureIters int
	// Batch is the per-GPU batch size (paper default 32).
	Batch int64
	// CommObs holds the communication observations the predictor was
	// trained on (reused by the model-selection ablation).
	CommObs []ceer.CommObs
	// Workers bounds the parallelism of the training campaign and of
	// RunAll: <= 0 selects GOMAXPROCS, 1 forces the serial path.
	Workers int

	// graphs memoizes zoo builds at the context batch size; the cache
	// is concurrency-safe, so experiments may share the context across
	// goroutines.
	graphs *graph.BuildCache
	// comp is Pred compiled over the zoo graphs at Batch: every
	// experiment prediction and recommendation reads these tables.
	comp *ceer.CompiledPredictor
}

// Options tunes context construction.
type Options struct {
	Seed uint64
	// ProfileIterations for the training campaign (default 200).
	ProfileIterations int
	// MeasureIters per observed run (default 20).
	MeasureIters int
	// Workers bounds campaign and RunAll parallelism (0 = GOMAXPROCS).
	Workers int
	// Retries is the per-cell retry budget of the training campaign
	// (0 = no retries).
	Retries int
	// Faults optionally injects deterministic faults into the training
	// campaign (nil = fault-free).
	Faults *faults.Spec
	// Checkpoint, when non-empty, journals campaign progress so a
	// preempted run resumes without re-measuring completed cells.
	Checkpoint string
}

// NewContext trains Ceer on the training-set CNNs and prepares the
// experiment harness. ctx bounds the campaign and every later
// measurement run through the context.
func NewContext(ctx context.Context, opts Options) (*Context, error) {
	if opts.ProfileIterations == 0 {
		opts.ProfileIterations = 200
	}
	if opts.MeasureIters == 0 {
		opts.MeasureIters = 20
	}
	pl := ceer.DefaultPipeline(opts.Seed)
	pl.ProfileIterations = opts.ProfileIterations
	pl.Workers = opts.Workers
	pl.CheckpointPath = opts.Checkpoint
	if opts.Retries > 0 || opts.Faults != nil {
		pl.Retry = ceer.DefaultRetryPolicy(opts.Seed, opts.Retries)
	}
	inj, err := faults.NewInjector(opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("experiments: fault spec: %w", err)
	}
	pl.Faults = inj
	res, err := pl.Campaign(ctx, zoo.Build, zoo.TrainingSet())
	if err != nil {
		return nil, fmt.Errorf("experiments: measurement campaign: %w", err)
	}
	pred, err := ceer.Train(res.Bundle, res.CommObs)
	if err != nil {
		return nil, fmt.Errorf("experiments: training Ceer: %w", err)
	}
	c := &Context{
		Ctx:          ctx,
		Pred:         pred,
		TrainBundle:  res.Bundle,
		Coverage:     res.Coverage,
		Seed:         opts.Seed,
		MeasureIters: opts.MeasureIters,
		Batch:        zoo.DefaultBatch,
		CommObs:      res.CommObs,
		Workers:      opts.Workers,
		graphs:       graph.NewBuildCache(zoo.Build),
	}
	graphs := make([]*graph.Graph, 0, len(zoo.Names()))
	for _, name := range zoo.Names() {
		g, err := c.Graph(name)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	if c.comp, err = ceer.Compile(pred, graphs); err != nil {
		return nil, fmt.Errorf("experiments: compiling Ceer: %w", err)
	}
	return c, nil
}

// Graph returns (building and caching) the named CNN at the context's
// batch size. Safe for concurrent use.
func (c *Context) Graph(name string) (*graph.Graph, error) {
	return c.graphs.Build(name, c.Batch)
}

// measureSeed separates experiment observations from training noise.
func (c *Context) measureSeed() uint64 { return c.Seed ^ 0x0B5E12345 }

// Observe runs a simulated "real" training measurement under the
// context's deadline.
func (c *Context) Observe(g *graph.Graph, cfg cloud.Config, ds dataset.Dataset) (sim.Measurement, error) {
	return sim.Train(c.Ctx, g, cfg, ds, c.MeasureIters, c.measureSeed())
}

// gpuOrder is the device registration order — for the built-in data
// files, the paper's presentation order: P3, P2, G4, G3.
func gpuOrder() []gpu.ID { return gpu.All() }

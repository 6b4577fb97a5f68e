// Package ceer is the public API of this repository: a from-scratch Go
// reproduction of "Empirical Analysis and Modeling of Compute Times of
// CNN Operations on AWS Cloud" (Hafeez & Gandhi, IISWC 2020).
//
// Ceer predicts the training time and rental cost of a CNN on each of
// AWS's GPU instance families (P3/V100, P2/K80, G4/T4, G3/M60) and
// recommends the configuration minimizing a user objective. The
// pipeline mirrors the paper:
//
//  1. Profile the 8 training-set CNNs op-by-op on every GPU model
//     (here: against the repository's calibrated hardware simulator —
//     see DESIGN.md for the substitution rationale).
//  2. Classify operation types empirically into heavy / light / CPU.
//  3. Fit one input-size regression per (GPU, heavy op), medians for
//     light and CPU ops, and a per-(GPU, #GPUs) linear model of the
//     data-parallel communication overhead versus parameter count.
//  4. Predict per Eq. (2): T = (S_GPU(CNN) + Σ t_op(input)) · D/(k·B),
//     C = T · hourly price; recommend argmin Obj(T, C).
//
// Basic use:
//
//	sys, err := ceer.Train(ceer.TrainOptions{Seed: 1})
//	g, err := ceer.BuildModel("inception-v3", 32)
//	rec, err := sys.Recommend(g, ceer.ImageNet, ceer.OnDemand,
//	    ceer.AllConfigs(4), ceer.MinimizeCost)
//	fmt.Println(rec.Best.Cfg, rec.Best.CostUSD)
package ceer

import (
	"context"
	"fmt"
	"io"
	"sync"

	internal "ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/drift"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/nn"
	"ceer/internal/sim"
	"ceer/internal/tensor"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// Re-exported core types. Aliases keep the public surface thin while
// documentation and behaviour live with the implementations.
type (
	// Graph is a CNN training-iteration DAG (op-level, forward +
	// backward + optimizer update + input pipeline).
	Graph = graph.Graph
	// GraphBuilder builds custom CNN graphs layer by layer.
	GraphBuilder = nn.Builder
	// Dataset describes a training set (only the sample count enters
	// the time model).
	Dataset = dataset.Dataset
	// InstanceConfig is a deployable (GPU model, GPU count) choice.
	InstanceConfig = cloud.Config
	// Pricing selects On-Demand or market-ratio price tables.
	Pricing = cloud.Pricing
	// GPUModel is the stable string ID of a registered GPU device.
	GPUModel = gpu.ID
	// Prediction is a training-time and cost prediction for one
	// configuration.
	Prediction = internal.Prediction
	// IterPrediction decomposes a predicted per-iteration training time.
	IterPrediction = internal.IterPrediction
	// Recommendation is the outcome of a recommender run.
	Recommendation = internal.Recommendation
	// Candidate pairs a configuration with its prediction, feasibility,
	// and objective score inside a Recommendation.
	Candidate = internal.Candidate
	// Explanation attributes a predicted iteration to operation types
	// (see CompiledSystem.ExplainIteration).
	Explanation = internal.Explanation
	// Objective scores (training seconds, cost USD); lower is better.
	Objective = internal.Objective
	// Constraint filters candidate configurations (budget caps).
	Constraint = internal.Constraint
	// Measurement is one simulated "observed" training run.
	Measurement = sim.Measurement
	// Variant selects predictor ablations (Full, NoComm, ...).
	Variant = internal.Variant
	// Padding selects SAME/VALID window semantics for GraphBuilder
	// convolutions and pooling.
	Padding = tensor.Padding
	// FaultSpec declares deterministic faults to inject into the
	// measurement campaign (chaos testing; see internal/faults).
	FaultSpec = faults.Spec
	// Coverage summarizes how completely a campaign measured its cells.
	Coverage = internal.Coverage
	// PersistError is the typed failure of loading a saved predictor.
	PersistError = internal.PersistError
	// CompiledSystem is the compiled prediction tables: the full
	// per-(device, signature-class) prediction table evaluated ahead of
	// time, so predictions, recommendations and explanations are pure
	// table gathers — lock-free, allocation-free, safe for concurrent
	// readers. Obtain one from System.Compiled; ForGraph covers a graph
	// outside its set.
	CompiledSystem = internal.CompiledPredictor
	// CompiledBox atomically publishes a CompiledSystem for hot-swap in
	// serving loops.
	CompiledBox = internal.CompiledBox
	// Obs is one observed op timing — the record type of JSONL
	// observation logs (see System.WriteObsLog and Calibrator.Replay).
	Obs = trace.Obs
	// Calibrator drives the observe→predict→calibrate loop over a
	// trained system; obtain one from System.NewCalibrator.
	Calibrator = internal.Calibrator
	// CalibrationPolicy fixes the calibration loop's drift thresholds
	// and refit schedule.
	CalibrationPolicy = internal.CalibrationPolicy
	// CalibrationReport is the structured outcome of a calibration run.
	CalibrationReport = internal.CalibrationReport
	// DriftPolicy fixes the windowed drift-detection thresholds.
	DriftPolicy = drift.Policy
	// FaultInjector evaluates a FaultSpec deterministically; build one
	// with NewFaultInjector to fault-inject a calibration replay.
	FaultInjector = faults.Injector
)

// Sentinel causes carried inside a PersistError (check with errors.Is)
// so reload paths can report why a model file was rejected: a stale
// on-disk format vs a device missing from this process's registry vs
// plain corruption (neither sentinel matches).
var (
	// ErrUnsupportedVersion: the file declares a persist version this
	// build does not understand.
	ErrUnsupportedVersion = internal.ErrUnsupportedVersion
	// ErrUnknownDevice: the file references an unregistered device ID.
	ErrUnknownDevice = internal.ErrUnknownDevice
)

// LoadFaultSpec reads a JSON fault specification from a file.
func LoadFaultSpec(path string) (*FaultSpec, error) { return faults.LoadSpec(path) }

// NewFaultInjector compiles a fault spec into a deterministic injector
// (nil spec = inject nothing).
func NewFaultInjector(spec *FaultSpec) (*FaultInjector, error) { return faults.NewInjector(spec) }

// DefaultCalibrationPolicy pairs the default drift thresholds with
// drift-triggered refits only.
func DefaultCalibrationPolicy() CalibrationPolicy { return internal.DefaultCalibrationPolicy() }

// DefaultDriftPolicy returns the standard drift thresholds (24-wide
// window, 25% MAPE, 12 same-signed residuals).
func DefaultDriftPolicy() DriftPolicy { return drift.DefaultPolicy() }

// Window padding policies for GraphBuilder layers.
const (
	// SamePadding pads so stride-1 windows preserve spatial size.
	SamePadding = tensor.Same
	// ValidPadding applies no padding.
	ValidPadding = tensor.Valid
)

// Pricing schemes.
const (
	// OnDemand uses AWS's published On-Demand prices.
	OnDemand = cloud.OnDemand
	// MarketRatio re-prices instances by commodity GPU market ratios
	// (the paper's Figure 12 scenario).
	MarketRatio = cloud.MarketRatio
)

// GPU models.
const (
	V100 = gpu.V100
	K80  = gpu.K80
	T4   = gpu.T4
	M60  = gpu.M60
)

// Predictor ablation variants (Section IV analyses).
const (
	Full            = internal.Full
	NoComm          = internal.NoComm
	HeavyOnly       = internal.HeavyOnly
	HeavyOnlyNoComm = internal.HeavyOnlyNoComm
)

// Built-in datasets.
var (
	// ImageNet is the 1.2M-sample ILSVRC-2012 training set.
	ImageNet = dataset.ImageNet
	// ImageNetSubset6400 is the paper's Figure 6 subset.
	ImageNetSubset6400 = dataset.ImageNetSubset6400
)

// Objectives.
var (
	// MinimizeTime optimizes pure training time.
	MinimizeTime = internal.MinimizeTime
	// MinimizeCost optimizes pure rental cost.
	MinimizeCost = internal.MinimizeCost
)

// MaxHourlyBudget rejects configurations costing more than usdPerHour
// (+slack) to rent.
func MaxHourlyBudget(usdPerHour, slack float64) Constraint {
	return internal.MaxHourlyBudget(usdPerHour, slack)
}

// MaxTotalBudget rejects configurations whose predicted training cost
// exceeds usd.
func MaxTotalBudget(usd float64) Constraint { return internal.MaxTotalBudget(usd) }

// FitsGPUMemory rejects configurations whose per-GPU training footprint
// (weights, optimizer state, retained activations) exceeds the GPU's
// memory — an 8 GB M60 cannot train what a 16 GB V100 can at the same
// batch size.
func FitsGPUMemory(g *Graph) Constraint { return internal.FitsGPUMemory(g) }

// EstimateMemoryGB returns the estimated per-GPU training footprint of
// a graph, in gigabytes.
func EstimateMemoryGB(g *Graph) float64 { return g.EstimateMemory().TotalGB() }

// Models returns the names of the 12 built-in CNN architectures.
func Models() []string { return zoo.Names() }

// TrainingModels returns the paper's 8 training-set CNNs.
func TrainingModels() []string { return zoo.TrainingSet() }

// TestModels returns the paper's 4 held-out CNNs.
func TestModels() []string { return zoo.TestSet() }

// BuildModel constructs a built-in CNN's training graph at the given
// per-GPU batch size (the paper default is 32). Each call builds a
// fresh graph; use BuildModelCached when the same architecture is
// consumed repeatedly (serving loops, device sweeps).
func BuildModel(name string, batch int64) (*Graph, error) { return zoo.Build(name, batch) }

// zooCache memoizes built-in zoo graphs process-wide: graphs are
// immutable once built, so a CLI (or server) that trains in memory and
// then predicts or recommends constructs each architecture exactly
// once, however many devices and GPU counts it sweeps.
var zooCache = graph.NewBuildCache(zoo.Build)

// BuildModelCached returns the shared, memoized build of a built-in CNN
// at the given batch size. The returned graph is shared — treat it as
// read-only (all ceer APIs do).
func BuildModelCached(name string, batch int64) (*Graph, error) { return zooCache.Build(name, batch) }

// NewGraphBuilder starts a custom CNN definition; see nn.Builder's
// layer methods (Conv, BatchNorm, ReLU, MaxPool, Dense, Concat, Add,
// SoftmaxLoss, ...).
func NewGraphBuilder(name string, batch int64) *GraphBuilder { return nn.NewBuilder(name, batch) }

// AllConfigs enumerates every candidate (GPU model, k) configuration
// with 1..maxK GPUs per family.
func AllConfigs(maxK int) []InstanceConfig { return cloud.Configs(maxK) }

// NewDataset describes a custom dataset by sample count.
func NewDataset(name string, samples int64) Dataset {
	return Dataset{Name: name, Samples: samples}
}

// TrainOptions configures the measurement-and-fit campaign.
type TrainOptions struct {
	// Seed drives the simulated measurement noise (deterministic).
	Seed uint64
	// ProfileIterations is the op-level profiling depth per (CNN, GPU);
	// 0 selects the default (200; the paper profiles 1,000).
	ProfileIterations int
	// CommIterations is the iteration sample per communication
	// observation; 0 selects the default (30).
	CommIterations int
	// Workers bounds the measurement campaign's parallelism across
	// independent (CNN, GPU, k) tasks: 0 selects GOMAXPROCS, 1 forces
	// the serial path. Any worker count yields an identically trained
	// system (the campaign is deterministic per (seed, CNN, GPU, node)).
	Workers int
	// Retries is the per-cell retry budget for transient campaign
	// faults (0 = single attempt per cell).
	Retries int
	// Faults optionally injects deterministic faults into the campaign
	// (nil = fault-free). With faults enabled the campaign completes
	// with partial coverage instead of failing: uncovered cells are
	// reported via System.Coverage and affected devices flagged
	// degraded.
	Faults *FaultSpec
	// Checkpoint, when non-empty, journals campaign progress to the
	// named file so a preempted run resumes without re-measuring
	// completed cells.
	Checkpoint string
}

// System is a trained Ceer instance plus the profiling corpus it was
// trained on.
type System struct {
	pred     *internal.Predictor
	bundle   *trace.Bundle
	coverage Coverage

	// compiledMu guards compiled, the per-batch-size cache of compiled
	// zoo-wide serving tables (see Compiled).
	compiledMu sync.Mutex
	compiled   map[int64]*CompiledSystem
}

// Train runs the full paper pipeline: profile the 8 training-set CNNs
// on all four GPU models, collect multi-GPU communication observations,
// and fit every Ceer model. It is TrainContext without a deadline.
func Train(opts TrainOptions) (*System, error) {
	return TrainContext(context.Background(), opts)
}

// TrainContext is Train bounded by a context: a deadline or
// cancellation interrupts the measurement campaign promptly (mid-cell,
// between blocks of nodes).
func TrainContext(ctx context.Context, opts TrainOptions) (*System, error) {
	pl := internal.DefaultPipeline(opts.Seed)
	if opts.ProfileIterations > 0 {
		pl.ProfileIterations = opts.ProfileIterations
	}
	if opts.CommIterations > 0 {
		pl.CommIterations = opts.CommIterations
	}
	pl.Workers = opts.Workers
	pl.CheckpointPath = opts.Checkpoint
	if opts.Retries > 0 || opts.Faults != nil {
		pl.Retry = internal.DefaultRetryPolicy(opts.Seed, opts.Retries)
	}
	inj, err := faults.NewInjector(opts.Faults)
	if err != nil {
		return nil, err
	}
	pl.Faults = inj
	pred, res, err := pl.TrainOn(ctx, zooCache.Build, zoo.TrainingSet())
	if err != nil {
		return nil, err
	}
	return &System{pred: pred, bundle: res.Bundle, coverage: res.Coverage}, nil
}

// Coverage reports how completely the training campaign measured its
// cells. A freshly loaded system (Load) reports a zero Coverage.
func (s *System) Coverage() Coverage { return s.coverage }

// DegradedDevices lists devices whose models were fit on incomplete
// campaign coverage, sorted by ID.
func (s *System) DegradedDevices() []GPUModel { return s.pred.DegradedDevices() }

// Predictor exposes the underlying trained predictor for advanced use
// (op-model inspection, the PredictIterationUnfolded test oracle).
func (s *System) Predictor() *internal.Predictor { return s.pred }

// Save serializes the trained models as JSON, so a system can be
// trained once and reloaded without re-profiling.
func (s *System) Save(w io.Writer) error { return s.pred.Save(w) }

// Load restores a System from JSON written by Save. The restored
// system predicts and recommends identically; it carries no profiling
// corpus.
func Load(r io.Reader) (*System, error) {
	pred, err := internal.Load(r)
	if err != nil {
		return nil, err
	}
	return &System{pred: pred}, nil
}

// LoadFile is Load from a file path. Failures carry the path and the
// file's format version via *PersistError (errors.As).
func LoadFile(path string) (*System, error) {
	pred, err := internal.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &System{pred: pred}, nil
}

// PredictTraining predicts the end-to-end training time and cost of one
// epoch of ds on cfg.
func (s *System) PredictTraining(g *Graph, cfg InstanceConfig, ds Dataset, p Pricing) (Prediction, error) {
	return s.PredictTrainingVariant(g, cfg, ds, p, Full)
}

// PredictTrainingVariant is PredictTraining under an ablation variant.
func (s *System) PredictTrainingVariant(g *Graph, cfg InstanceConfig, ds Dataset, p Pricing, v Variant) (Prediction, error) {
	c, err := s.compiledFor(g)
	if err != nil {
		return Prediction{}, err
	}
	return c.PredictTrainingVariant(g, cfg, ds, p, v)
}

// Recommend evaluates the candidates and returns the feasible one
// minimizing the objective, plus every candidate's prediction.
func (s *System) Recommend(g *Graph, ds Dataset, p Pricing, candidates []InstanceConfig,
	obj Objective, constraints ...Constraint) (Recommendation, error) {
	c, err := s.compiledFor(g)
	if err != nil {
		return Recommendation{}, err
	}
	return c.Recommend(g, ds, p, candidates, obj, constraints...)
}

// compiledFor returns compiled tables covering g: the zoo tables at
// g's batch size, or g compiled alone when it is not a cached zoo
// graph.
func (s *System) compiledFor(g *Graph) (*CompiledSystem, error) {
	c, err := s.Compiled(g.BatchSize)
	if err != nil {
		return nil, err
	}
	return c.ForGraph(g)
}

// Compiled returns the system's compiled serving core for the built-in
// zoo at the given per-GPU batch size (0 selects the paper default,
// 32): every (device, signature class) prediction is evaluated once up
// front into immutable flat tables, so subsequent predictions and
// recommendations over zoo graphs are lock-free table gathers. The
// result is cached per batch size and safe for concurrent use; graphs
// must come from BuildModelCached (the compiled set is keyed by graph
// identity). For any other graph, CompiledSystem.ForGraph compiles it
// alone from the same predictor; the System methods do so per call.
func (s *System) Compiled(batch int64) (*CompiledSystem, error) {
	if batch == 0 {
		batch = zoo.DefaultBatch
	}
	s.compiledMu.Lock()
	defer s.compiledMu.Unlock()
	if c, ok := s.compiled[batch]; ok {
		return c, nil
	}
	names := zoo.Names()
	graphs := make([]*Graph, 0, len(names))
	for _, name := range names {
		g, err := zooCache.Build(name, batch)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	c, err := internal.Compile(s.pred, graphs)
	if err != nil {
		return nil, err
	}
	if s.compiled == nil {
		s.compiled = make(map[int64]*CompiledSystem)
	}
	s.compiled[batch] = c
	return c, nil
}

// WriteObsLog streams the training campaign's op-level observations to
// w as JSONL — the replayable record a calibration run consumes. Only
// a freshly trained system carries the corpus; a system restored by
// Load has none and returns an error.
func (s *System) WriteObsLog(w io.Writer) error {
	if s.bundle == nil {
		return fmt.Errorf("ceer: system carries no profiling corpus (loaded, not trained)")
	}
	return trace.WriteObsLog(w, s.bundle)
}

// NewCalibrator wraps the system's predictor in an
// observe→predict→calibrate loop: stream observations through
// Calibrator.Calibrate (or replay a log with Calibrator.Replay) and it
// folds each into per-(device, op) sufficient statistics, detects
// drift, and refits drifted models copy-on-write. The system's own
// predictor is never mutated; adopt the recalibrated one with
// AdoptCalibrated, or bind a CompiledBox for lock-free hot-swap.
func (s *System) NewCalibrator(pol CalibrationPolicy) (*Calibrator, error) {
	return internal.NewCalibrator(s.pred, pol)
}

// AdoptCalibrated installs the calibrator's latest recalibrated
// predictor as this system's serving predictor and drops the compiled
// cache (its tables were built from the old models). Not safe
// concurrently with predictions — serving loops should publish through
// a CompiledBox via Calibrator.BindBox instead.
func (s *System) AdoptCalibrated(c *Calibrator) {
	s.compiledMu.Lock()
	defer s.compiledMu.Unlock()
	s.pred = c.Predictor()
	s.compiled = nil
}

// HeavyOps returns the operation types Ceer classified as heavy (the
// paper's Figure 2 set).
func (s *System) HeavyOps() []string {
	types := s.pred.Class.HeavyTypes()
	out := make([]string, len(types))
	for i, t := range types {
		out[i] = string(t)
	}
	return out
}

// Observe runs a simulated "ground truth" training measurement — the
// stand-in for actually renting the instance (see DESIGN.md). Useful
// for validating predictions in examples and experiments.
func Observe(g *Graph, cfg InstanceConfig, ds Dataset, measureIters int, seed uint64) (Measurement, error) {
	return sim.Train(context.Background(), g, cfg, ds, measureIters, seed)
}

// HourlyCost returns the rental price of a configuration under a
// pricing scheme.
func HourlyCost(cfg InstanceConfig, p Pricing) (float64, error) { return cfg.HourlyCost(p) }

// InstanceName returns the closest AWS instance name of a
// configuration (e.g. "p3.8xlarge").
func InstanceName(cfg InstanceConfig) string { return cfg.InstanceName() }

// Config builds an InstanceConfig from a family code ("P3", "P2",
// "G4", "G3") and GPU count.
func Config(family string, k int) (InstanceConfig, error) {
	m, ok := gpu.ByFamily(family)
	if !ok {
		return InstanceConfig{}, fmt.Errorf("ceer: unknown GPU family %q", family)
	}
	cfg := InstanceConfig{GPU: m, K: k}
	if !cfg.Valid() {
		return InstanceConfig{}, fmt.Errorf("ceer: invalid configuration %dx%s", k, family)
	}
	return cfg, nil
}

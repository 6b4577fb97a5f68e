// Command ceer trains the Ceer predictor and answers training-time,
// cost, and instance-recommendation queries for the built-in CNN zoo.
//
// Usage:
//
//	ceer train -out models.json [-seed N] [-iters N] [-workers N]
//	ceer predict -model inception-v3 [-models models.json] [-config 2xP3]
//	    [-samples N] [-batch N] [-market]
//	ceer recommend -model inception-v3 [-models models.json]
//	    [-objective cost|time] [-hourly-budget X] [-total-budget X]
//	    [-market] [-samples N] [-batch N]
//	ceer calibrate -obs observations.jsonl [-models models.json]
//	    [-out recalibrated.json] [-window N] [-mape X] [-sign-run N]
//	    [-refit-every N]
//	ceer zoo
//	ceer devices
//
// calibrate replays a JSONL observation log (written by `ceer train
// -obs-log` or a serving process) through the observe→predict→calibrate
// loop: each observation updates the matching op model's sufficient
// statistics, drifted models are refit in place, and the run ends with
// a deterministic drift/refit report (optionally writing the
// recalibrated models with -out).
//
// Without -models, predict/recommend train a fresh predictor in memory
// (a few seconds). Every subcommand accepts -extra-devices to also
// register the built-in non-paper devices (currently the A10G / G5);
// without it the tool sees exactly the paper's four-GPU catalog.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ceer"
	"ceer/internal/devices/a10g"
	"ceer/internal/gpu"
	"ceer/internal/textutil"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "calibrate":
		err = cmdCalibrate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "zoo":
		err = cmdZoo()
	case "devices", "-list-devices", "--list-devices":
		err = cmdDevices(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ceer: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ceer:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ceer train -out models.json [-seed N] [-iters N] [-workers N] [-obs-log FILE]
             [-timeout D] [-retries N] [-fault-spec FILE] [-checkpoint FILE]
  ceer predict -model NAME [-models FILE] [-config 2xP3] [-samples N] [-batch N]
               [-market] [-explain] [-explain-nodes N] [-workers N]
               [-timeout D] [-retries N] [-fault-spec FILE]
  ceer recommend -model NAME [-models FILE] [-objective cost|time]
                 [-hourly-budget X] [-total-budget X] [-memory] [-market]
                 [-samples N] [-batch N] [-workers N]
                 [-timeout D] [-retries N] [-fault-spec FILE]
  ceer calibrate -obs FILE [-models FILE] [-out FILE] [-window N] [-mape X]
                 [-sign-run N] [-refit-every N] [-min-refit-obs N]
                 [-fault-spec FILE] [-seed N] [-workers N]
  ceer serve [-models FILE] [-addr HOST:PORT] [-batch N] [-maxk N] [-rate X]
             [-burst N] [-max-inflight N] [-request-timeout D] [-warmup]
  ceer zoo
  ceer devices [-extra-devices]     (also: ceer -list-devices)

calibrate replays a JSONL observation log (ceer train -obs-log) against
the models: drifted op models are detected over a residual window and
refit from accumulated sufficient statistics; the drift/refit report is
printed and -out writes the recalibrated models.

-workers bounds the measurement campaign's parallelism (0 = GOMAXPROCS,
1 = serial); any value trains an identical predictor.
-timeout bounds the whole run (Go duration, e.g. 90s; 0 = none).
-retries is the per-cell retry budget for transient campaign faults;
-fault-spec injects deterministic faults from a JSON spec (chaos
testing); -checkpoint (train) journals campaign progress so a preempted
run resumes without re-measuring completed cells.
-extra-devices (train/predict/recommend/devices) registers the built-in
non-paper GPU devices and their instances before running.
train/predict/recommend/calibrate/serve accept -cpuprofile FILE and
-memprofile FILE to write pprof profiles of the run (serve's stop after
the drain).`)
}

// profileFlags holds the -cpuprofile/-memprofile flag values shared by
// the train/predict/recommend/calibrate/serve subcommands.
type profileFlags struct {
	cpu, mem *string
}

// addProfileFlags registers the profiling flags on a subcommand.
func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// start begins CPU profiling if requested and returns a stop function
// that finishes the CPU profile and writes the heap profile. Call stop
// exactly once after the command's work; its error must be propagated.
func (p *profileFlags) start() (stop func() error, err error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		cpuFile, err = os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close() // best-effort cleanup; the profile-start error matters
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				return err
			}
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close() // best-effort; the profile-write error matters
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// deferStop runs the profiling stop function when the command returns,
// surfacing its error unless the command already failed.
func deferStop(stop func() error, err *error) {
	if serr := stop(); serr != nil && *err == nil {
		*err = serr
	}
}

// resilienceFlags holds the -timeout/-retries/-fault-spec flags shared
// by the train/predict/recommend subcommands.
type resilienceFlags struct {
	timeout   *time.Duration
	retries   *int
	faultSpec *string
}

// addResilienceFlags registers the resilience flags on a subcommand.
func addResilienceFlags(fs *flag.FlagSet) *resilienceFlags {
	return &resilienceFlags{
		timeout:   fs.Duration("timeout", 0, "overall deadline for the run (0 = none)"),
		retries:   fs.Int("retries", 0, "per-cell retry budget for transient campaign faults"),
		faultSpec: fs.String("fault-spec", "", "JSON fault-injection spec file (chaos testing)"),
	}
}

// context derives the run's root context from -timeout.
func (r *resilienceFlags) context() (context.Context, context.CancelFunc) {
	if *r.timeout > 0 {
		return context.WithTimeout(context.Background(), *r.timeout)
	}
	return context.WithCancel(context.Background())
}

// apply folds the resilience flags into the training options.
func (r *resilienceFlags) apply(opts ceer.TrainOptions) (ceer.TrainOptions, error) {
	opts.Retries = *r.retries
	if *r.faultSpec != "" {
		spec, err := ceer.LoadFaultSpec(*r.faultSpec)
		if err != nil {
			return opts, err
		}
		opts.Faults = spec
	}
	return opts, nil
}

// warnCoverage reports incomplete campaign coverage on stderr; a
// fully-covered campaign prints nothing.
func warnCoverage(sys *ceer.System) {
	cov := sys.Coverage()
	if cov.Complete() {
		return
	}
	fmt.Fprintf(os.Stderr, "ceer: warning: campaign incomplete (%s)\n", cov)
	for _, m := range sys.DegradedDevices() {
		fmt.Fprintf(os.Stderr, "ceer: warning: device %s trained on partial coverage\n", m)
	}
}

// loadOrTrain returns a system from -models, or trains one in memory.
func loadOrTrain(ctx context.Context, path string, res *resilienceFlags, seed uint64, workers int) (*ceer.System, error) {
	if path != "" {
		return ceer.LoadFile(path)
	}
	fmt.Fprintln(os.Stderr, "ceer: no -models file given; training a fresh predictor...")
	opts, err := res.apply(ceer.TrainOptions{Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	sys, err := ceer.TrainContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	warnCoverage(sys)
	return sys, nil
}

func cmdTrain(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "models.json", "output path for the trained models")
	seed := fs.Uint64("seed", 1, "measurement noise seed")
	iters := fs.Int("iters", 0, "profiling iterations per (CNN, GPU); 0 = default")
	workers := fs.Int("workers", 0, "parallel measurement workers; 0 = GOMAXPROCS, 1 = serial")
	extra := fs.Bool("extra-devices", false, "also register the built-in non-paper devices")
	obsLog := fs.String("obs-log", "", "also write the campaign's observation stream (JSONL) to this file")
	res := addResilienceFlags(fs)
	checkpoint := fs.String("checkpoint", "", "journal campaign progress to this file and resume from it")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer deferStop(stop, &err)
	if *extra {
		a10g.Register()
	}
	ctx, cancel := res.context()
	defer cancel()
	opts, err := res.apply(ceer.TrainOptions{Seed: *seed, ProfileIterations: *iters, Workers: *workers, Checkpoint: *checkpoint})
	if err != nil {
		return err
	}
	sys, err := ceer.TrainContext(ctx, opts)
	if err != nil {
		return err
	}
	warnCoverage(sys)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := sys.Save(f); err != nil {
		_ = f.Close() // best-effort; the save error is what matters
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *obsLog != "" {
		lf, err := os.Create(*obsLog)
		if err != nil {
			return err
		}
		if err := sys.WriteObsLog(lf); err != nil {
			_ = lf.Close() // best-effort; the write error is what matters
			return err
		}
		if err := lf.Close(); err != nil {
			return err
		}
		fmt.Printf("observation log written to %s\n", *obsLog)
	}
	fmt.Printf("trained on %s; %d heavy op types; models written to %s\n",
		strings.Join(ceer.TrainingModels(), ", "), len(sys.HeavyOps()), *out)
	return nil
}

// cmdCalibrate replays a JSONL observation log through the
// observe→predict→calibrate loop and prints the drift/refit report.
func cmdCalibrate(args []string) (err error) {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	obsPath := fs.String("obs", "", "JSONL observation log to replay (required)")
	modelsPath := fs.String("models", "", "trained models file (from `ceer train`)")
	out := fs.String("out", "", "write the recalibrated models to this file")
	window := fs.Int("window", 0, "drift residual window size (0 = default)")
	mape := fs.Float64("mape", 0, "windowed MAPE drift threshold, fraction (0 = default)")
	signRun := fs.Int("sign-run", 0, "same-sign residual run drift threshold (0 = default)")
	refitEvery := fs.Int("refit-every", 0, "also refit every N applied observations per cell (0 = drift-triggered only)")
	minRefitObs := fs.Int("min-refit-obs", 0, "minimum accumulated observations before a refit (raised to the parameter count)")
	seed := fs.Uint64("seed", 1, "training seed when no -models file is given")
	workers := fs.Int("workers", 0, "parallel measurement workers when training in memory; 0 = GOMAXPROCS")
	extra := fs.Bool("extra-devices", false, "also register the built-in non-paper devices")
	res := addResilienceFlags(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer deferStop(stop, &err)
	if *extra {
		a10g.Register()
	}
	if *obsPath == "" {
		return fmt.Errorf("calibrate: -obs is required")
	}
	ctx, cancel := res.context()
	defer cancel()
	sys, err := loadOrTrain(ctx, *modelsPath, res, *seed, *workers)
	if err != nil {
		return err
	}

	pol := ceer.DefaultCalibrationPolicy()
	if *window > 0 {
		pol.Drift.Window = *window
	}
	if *mape > 0 {
		pol.Drift.MAPEThreshold = *mape
	}
	if *signRun > 0 {
		pol.Drift.SignRun = *signRun
	}
	pol.RefitEvery = *refitEvery
	pol.MinRefitObs = *minRefitObs
	cal, err := sys.NewCalibrator(pol)
	if err != nil {
		return err
	}

	// -fault-spec here injects into the replay itself (stage
	// "calibrate"): transient faults drop observations, a preemption
	// aborts the replay.
	var inj *ceer.FaultInjector
	if *res.faultSpec != "" {
		spec, err := ceer.LoadFaultSpec(*res.faultSpec)
		if err != nil {
			return err
		}
		if inj, err = ceer.NewFaultInjector(spec); err != nil {
			return err
		}
	}
	obsFile, err := os.Open(*obsPath)
	if err != nil {
		return err
	}
	//lint:ignore errdrop read-side close; there are no buffered writes to lose
	defer obsFile.Close()
	if err := cal.Replay(obsFile, inj); err != nil {
		return err
	}
	if err := cal.Report().Render(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		sys.AdoptCalibrated(cal)
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := sys.Save(f); err != nil {
			_ = f.Close() // best-effort; the save error is what matters
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("recalibrated models written to %s\n", *out)
	}
	return nil
}

// parseConfig parses "2xP3" or "P3" (implying 1 GPU).
func parseConfig(s string) (ceer.InstanceConfig, error) {
	k := 1
	fam := s
	if i := strings.IndexByte(s, 'x'); i > 0 {
		n, err := strconv.Atoi(s[:i])
		if err != nil {
			return ceer.InstanceConfig{}, fmt.Errorf("bad config %q", s)
		}
		k, fam = n, s[i+1:]
	}
	return ceer.Config(strings.ToUpper(fam), k)
}

func cmdPredict(args []string) (err error) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "", "CNN name (see `ceer zoo`)")
	modelsPath := fs.String("models", "", "trained models file (from `ceer train`)")
	configStr := fs.String("config", "", "one configuration like 2xP3; empty = all")
	samples := fs.Int64("samples", ceer.ImageNet.Samples, "dataset size in samples")
	batch := fs.Int64("batch", 32, "per-GPU batch size")
	market := fs.Bool("market", false, "use market-ratio prices instead of On-Demand")
	jsonOut := fs.Bool("json", false, "emit the serving daemon's /v1/predict JSON document instead of the table")
	seed := fs.Uint64("seed", 1, "training seed when no -models file is given")
	workers := fs.Int("workers", 0, "parallel measurement workers when training in memory; 0 = GOMAXPROCS")
	explain := fs.Bool("explain", false, "attribute the prediction to operation types")
	explainNodes := fs.Int("explain-nodes", 0, "print the top N node-level contributions per device")
	extra := fs.Bool("extra-devices", false, "also register the built-in non-paper devices")
	res := addResilienceFlags(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer deferStop(stop, &err)
	if *extra {
		a10g.Register()
	}
	if *model == "" {
		return fmt.Errorf("predict: -model is required")
	}
	ctx, cancel := res.context()
	defer cancel()
	sys, err := loadOrTrain(ctx, *modelsPath, res, *seed, *workers)
	if err != nil {
		return err
	}
	if *jsonOut {
		return servePredictJSON(sys, *model, *configStr, *samples, *batch, *market)
	}
	g, err := ceer.BuildModelCached(*model, *batch)
	if err != nil {
		return err
	}
	ds := ceer.NewDataset("custom", *samples)
	pricing := ceer.OnDemand
	if *market {
		pricing = ceer.MarketRatio
	}
	var cfgs []ceer.InstanceConfig
	if *configStr != "" {
		cfg, err := parseConfig(*configStr)
		if err != nil {
			return err
		}
		cfgs = []ceer.InstanceConfig{cfg}
	} else {
		cfgs = ceer.AllConfigs(4)
	}
	// Compile the zoo-wide serving tables once up front (the persist
	// warm-up: a system loaded from -models evaluates all its models
	// here, then every query below is a table gather).
	comp, err := sys.Compiled(*batch)
	if err != nil {
		return err
	}
	tbl := &textutil.Table{
		Title:  fmt.Sprintf("Predicted training of %s (%d samples, batch %d, %s prices)", *model, *samples, *batch, pricing),
		Header: []string{"config", "instance", "$/hr", "iter (ms)", "total (h)", "cost"},
	}
	degraded := map[string]string{}
	for _, cfg := range cfgs {
		cand, err := comp.PredictCandidate(g, cfg, ds, pricing)
		if err == nil && *configStr != "" && !cand.Feasible {
			// As in the daemon: a sweep answers a degraded device
			// without its comm model, a named configuration does not.
			_, err = comp.PredictTraining(g, cfg, ds, pricing)
		}
		if err != nil {
			return err
		}
		marker := ""
		if cand.Degraded != "" {
			marker = " †"
			degraded[string(cfg.GPU)] = cand.Degraded
		}
		tbl.AddRow(cfg.String()+marker, ceer.InstanceName(cfg),
			fmt.Sprintf("%.3f", cand.HourlyUSD),
			textutil.Ms(cand.Iter.PerIterSeconds),
			textutil.Hours(cand.TotalSeconds),
			textutil.USD(cand.CostUSD))
		if len(cand.Iter.UnseenHeavy) > 0 {
			tbl.AddNote("%s: unseen heavy ops %v — prediction degraded; retrain Ceer", cfg, cand.Iter.UnseenHeavy)
		}
	}
	noteDegraded(tbl, sys, degraded)
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if *explain {
		for _, cfg := range cfgs {
			if err := renderExplanation(comp, g, cfg); err != nil {
				return err
			}
		}
	}
	if *explainNodes > 0 {
		seen := map[gpu.ID]bool{}
		for _, cfg := range cfgs {
			if seen[cfg.GPU] {
				continue
			}
			seen[cfg.GPU] = true
			if err := renderNodeExplanation(comp, g, cfg.GPU, *explainNodes); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderNodeExplanation prints the top node-level contributions of one
// device's predicted iteration (compute only; communication has no node
// to attach to).
func renderNodeExplanation(comp *ceer.CompiledSystem, g *ceer.Graph, m gpu.ID, top int) error {
	nodes, err := comp.ExplainNodes(g, m)
	if err != nil {
		return err
	}
	tbl := &textutil.Table{
		Title:  fmt.Sprintf("Per-node attribution: %s on %s (top %d of %d)", g.Name, m, top, len(nodes)),
		Header: []string{"node", "operation", "class", "phase", "ms/iter"},
	}
	for i, n := range nodes {
		if i >= top {
			break
		}
		tbl.AddRow(n.Name, string(n.OpType), n.Class.String(), n.Phase.String(),
			textutil.Ms(n.Seconds))
	}
	tbl.AddNote("per-node rows exclude communication; see -explain for the full split")
	return tbl.Render(os.Stdout)
}

// renderExplanation prints the per-op-type attribution of one
// configuration's predicted iteration.
func renderExplanation(comp *ceer.CompiledSystem, g *ceer.Graph, cfg ceer.InstanceConfig) error {
	ex, err := comp.ExplainIteration(g, cfg.GPU, cfg.K)
	if err != nil {
		return err
	}
	marker := ""
	if ex.Degraded != "" {
		marker = " †"
	}
	tbl := &textutil.Table{
		Title:  fmt.Sprintf("Attribution: %s on %s%s", g.Name, cfg, marker),
		Header: []string{"operation", "class", "instances", "ms/iter", "share"},
	}
	for i, c := range ex.Contributions {
		if i >= 12 {
			break
		}
		tbl.AddRow(string(c.OpType), c.Class.String(), fmt.Sprintf("%d", c.Count),
			textutil.Ms(c.Seconds), textutil.Pct(c.Share))
	}
	tbl.AddNote("communication overhead: %s ms (%s of the iteration)",
		textutil.Ms(ex.Iter.CommSeconds), textutil.Pct(ex.CommShare))
	if ex.Degraded != "" {
		tbl.AddNote("† %s trained on partial coverage: %s", cfg.GPU, ex.Degraded)
	}
	return tbl.Render(os.Stdout)
}

func cmdRecommend(args []string) (err error) {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	model := fs.String("model", "", "CNN name (see `ceer zoo`)")
	modelsPath := fs.String("models", "", "trained models file (from `ceer train`)")
	objective := fs.String("objective", "cost", "cost or time")
	hourly := fs.Float64("hourly-budget", 0, "max hourly rental price (0 = unconstrained)")
	total := fs.Float64("total-budget", 0, "max total training cost (0 = unconstrained)")
	samples := fs.Int64("samples", ceer.ImageNet.Samples, "dataset size in samples")
	batch := fs.Int64("batch", 32, "per-GPU batch size")
	market := fs.Bool("market", false, "use market-ratio prices")
	seed := fs.Uint64("seed", 1, "training seed when no -models file is given")
	workers := fs.Int("workers", 0, "parallel measurement workers when training in memory; 0 = GOMAXPROCS")
	memory := fs.Bool("memory", false, "exclude configurations whose GPU memory cannot hold the training state")
	extra := fs.Bool("extra-devices", false, "also register the built-in non-paper devices")
	res := addResilienceFlags(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer deferStop(stop, &err)
	if *extra {
		a10g.Register()
	}
	if *model == "" {
		return fmt.Errorf("recommend: -model is required")
	}
	ctx, cancel := res.context()
	defer cancel()
	sys, err := loadOrTrain(ctx, *modelsPath, res, *seed, *workers)
	if err != nil {
		return err
	}
	g, err := ceer.BuildModelCached(*model, *batch)
	if err != nil {
		return err
	}
	ds := ceer.NewDataset("custom", *samples)
	pricing := ceer.OnDemand
	if *market {
		pricing = ceer.MarketRatio
	}
	var obj ceer.Objective
	switch *objective {
	case "cost":
		obj = ceer.MinimizeCost
	case "time":
		obj = ceer.MinimizeTime
	default:
		return fmt.Errorf("recommend: unknown objective %q", *objective)
	}
	var constraints []ceer.Constraint
	if *hourly > 0 {
		constraints = append(constraints, ceer.MaxHourlyBudget(*hourly, 0))
	}
	if *total > 0 {
		constraints = append(constraints, ceer.MaxTotalBudget(*total))
	}
	if *memory {
		constraints = append(constraints, ceer.FitsGPUMemory(g))
	}
	// Sweep through the compiled zoo-wide tables: one up-front compile,
	// then the sweep is a pure table scan.
	comp, err := sys.Compiled(*batch)
	if err != nil {
		return err
	}
	rec, err := comp.Recommend(g, ds, pricing, ceer.AllConfigs(4), obj, constraints...)
	if err != nil {
		return err
	}
	tbl := &textutil.Table{
		Title:  fmt.Sprintf("Recommendation for %s (minimize %s)", *model, *objective),
		Header: []string{"config", "instance", "$/hr", "total (h)", "cost", "feasible"},
	}
	degraded := map[string]string{}
	for _, c := range rec.Candidates {
		marker := ""
		if c.Cfg == rec.Best.Cfg {
			marker = " *"
		}
		if c.Degraded != "" {
			marker += " †"
			degraded[string(c.Cfg.GPU)] = c.Degraded
		}
		tbl.AddRow(c.Cfg.String()+marker, ceer.InstanceName(c.Cfg),
			fmt.Sprintf("%.3f", c.HourlyUSD), textutil.Hours(c.TotalSeconds),
			textutil.USD(c.CostUSD), fmt.Sprintf("%v", c.Feasible))
	}
	tbl.AddNote("recommended: %s (%s) at %s, %s",
		rec.Best.Cfg, ceer.InstanceName(rec.Best.Cfg),
		textutil.Hours(rec.Best.TotalSeconds)+"h", textutil.USD(rec.Best.CostUSD))
	noteDegraded(tbl, sys, degraded)
	if rec.Best.Degraded != "" {
		tbl.AddNote("no cleanly-covered feasible configuration; the recommendation is degraded")
	}
	return tbl.Render(os.Stdout)
}

// noteDegraded footnotes every device whose rows are marked †, keyed
// by device ID in degraded, with its partial-coverage reason.
func noteDegraded(tbl *textutil.Table, sys *ceer.System, degraded map[string]string) {
	for _, m := range sys.DegradedDevices() {
		if reason, ok := degraded[string(m)]; ok {
			tbl.AddNote("† %s trained on partial coverage: %s", m, reason)
		}
	}
}

// cmdDevices prints the device registry: one row per registered GPU
// with its spec-level effective throughputs.
func cmdDevices(args []string) error {
	fs := flag.NewFlagSet("devices", flag.ExitOnError)
	extra := fs.Bool("extra-devices", false, "also register the built-in non-paper devices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *extra {
		a10g.Register()
	}
	tbl := &textutil.Table{
		Title:  "Registered GPU devices",
		Header: []string{"id", "name", "family", "mem GB", "TFLOPS", "GB/s", "launch us"},
	}
	for _, id := range gpu.All() {
		d := gpu.MustLookup(id)
		tbl.AddRow(string(d.ID), d.Name, d.Family,
			fmt.Sprintf("%d", d.MemoryGB),
			fmt.Sprintf("%.1f", d.ComputeTFLOPS),
			fmt.Sprintf("%.0f", d.MemBWGBps),
			fmt.Sprintf("%.0f", d.LaunchUS))
	}
	tbl.AddNote("throughputs are effective (calibrated) rates, not datasheet peaks")
	tbl.AddNote("new devices register as pure data (gpu.Register); no core package changes")
	return tbl.Render(os.Stdout)
}

func cmdZoo() error {
	tbl := &textutil.Table{
		Title:  "Built-in CNN zoo",
		Header: []string{"model", "split", "params (M)", "DAG nodes"},
	}
	split := map[string]string{}
	for _, n := range ceer.TrainingModels() {
		split[n] = "train"
	}
	for _, n := range ceer.TestModels() {
		split[n] = "test"
	}
	for _, name := range ceer.Models() {
		g, err := ceer.BuildModelCached(name, 32)
		if err != nil {
			return err
		}
		tbl.AddRow(name, split[name], fmt.Sprintf("%.1f", float64(g.Params)/1e6),
			fmt.Sprintf("%d", g.Len()))
	}
	return tbl.Render(os.Stdout)
}

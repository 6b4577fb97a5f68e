package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// Set-up and measuring constants shared by the workloads.
const (
	setupBoots = 15 // daemon boots per run; setup_s is their median
	minTrains  = 3  // a train run measures at least this many pipelines
)

// runTrain measures the paper's pipeline in-process: ceer.TrainContext
// at default depth (Workers = nproc), System.Compiled(32), System.Save.
// The daemon booted on the trained model for set-up timing and the
// served-body check stays up, idle, during the measured loop.
func runTrain(ctx context.Context, cfg config, res *result) error {
	workers := runtime.NumCPU()
	model := filepath.Join(cfg.tmp, "model.json")
	// Set-up: one training run fills the process's graph cache, so every
	// measured run does the same work, and yields the model the checks
	// and the daemon boots use.
	sys, err := trainSaved(ctx, cfg.seed, workers, model)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	checkUnfolded(res, sys)
	d, boots, err := bootSeries(ceerBin, setupBoots, func(int) []string {
		return []string{"-models", model, "-warmup"}
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	ops := readStream(cfg.seed, 256)
	ref, err := newReference(model, ops)
	if err != nil {
		return err
	}
	checkServed(res, d, ops, ref)

	again := filepath.Join(cfg.tmp, "again.json")
	var secs, wallMs, cpuMs, allocMB []float64
	stolen := 0.0
	deadline := time.Now().Add(cfg.duration())
	for len(secs) < minTrains || time.Now().Before(deadline) {
		a0, c0 := heapAllocBytes(), selfCPU()
		t0, clock := time.Now(), startStealClock()
		_, err := trainSaved(ctx, cfg.seed, workers, again)
		secs = append(secs, time.Since(t0).Seconds())
		w, share := clock.elapsed()
		wallMs, stolen = append(wallMs, w.Seconds()*1e3), stolen+share
		cpuMs = append(cpuMs, (selfCPU()-c0)*1e3)
		allocMB = append(allocMB, float64(heapAllocBytes()-a0)/1e6)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(again)
		res.check(err == nil && bytes.Equal(got, want), "training run %d saved a model that differs from the set-up model", len(secs))
	}
	ts, cs := summarize(secs), summarize(cpuMs)
	trainS := ts.P50
	boots.report(res)
	res.setE2E("cpu_ms_per_op", "ms", cs.P50)
	res.setE2E("wall_ms_per_op", "ms", median(wallMs))
	res.value("steal_share (mean over pipelines)", "fraction", stolen/float64(len(secs)), len(secs))
	res.timing("train_cpu_ms", "ms", cs)
	res.timing("train_s", "s", ts)
	res.timing("train_alloc_mb", "MB", summarize(allocMB))

	if cfg.trace {
		if err := traceTrain(ctx, cfg, res, want, trainS); err != nil {
			return err
		}
		if err := readProbe(res, d, ops, ref, cfg.seed, cfg.duration()*3/10); err != nil {
			return err
		}
		if err := probeLayers(ctx, cfg, res, model, ref, ops, nil); err != nil {
			return err
		}
	}
	stopped = true
	return d.stop()
}

// traceTrain repeats the measured loop with the pipeline split into its
// layer calls, one span each, and reports the per-layer metrics plus
// how well the stage self times account for the untraced train_s.
func traceTrain(ctx context.Context, cfg config, res *result, want []byte, trainS float64) error {
	out := filepath.Join(cfg.tmp, "traced.json")
	var counts stageCounts
	deadline := time.Now().Add(cfg.duration())
	for n := 1; n <= minTrains || time.Now().Before(deadline); n++ {
		c, err := trainTraced(ctx, res.tr, res.tr.newReq(), cfg.seed, runtime.NumCPU(), out)
		if err != nil {
			return err
		}
		counts = c
		got, err := os.ReadFile(out)
		res.check(err == nil && bytes.Equal(got, want), "traced training run %d saved a model that differs from the untraced one", n)
	}
	spans := res.tr.snapshot()
	pipelineLayers(res, spans, counts)
	selfPerRun := map[int64]float64{}
	self := selfTimesByReq(spans)
	for req, byName := range self {
		for _, st := range pipelineStages {
			selfPerRun[req] += float64(byName[st]) / 1e9
		}
	}
	var stageSums []float64
	for _, v := range selfPerRun {
		stageSums = append(stageSums, v)
	}
	traced := median(durationsOf(spans, "train", 1e9))
	cov := median(stageSums) / trainS
	res.setLayer("spans.coverage", "fraction", cov)
	res.setLayer("spans.overhead", "fraction", (traced-trainS)/trainS)
	res.value("stage self-time sum / train_s", "fraction", cov, len(stageSums))
	return nil
}

// pipelineLayers reports the pipeline stage metrics from traced spans
// (medians over traced runs) and one run's work counts.
func pipelineLayers(res *result, spans []span, c stageCounts) {
	stage := func(name string) float64 { return median(durationsOf(spans, name, 1e9)) }
	profile := stage("sim.profile")
	res.setLayer("graph.build_s", "s", stage("graph.build"))
	res.setLayer("graph.nodes", "count", float64(c.nodes))
	res.setLayer("sim.profile_s", "s", profile)
	res.setLayer("sim.profile_cells", "count", float64(c.profileCells))
	res.setLayer("sim.samples_per_s", "1/s", float64(c.samples)/profile)
	res.setLayer("sim.comm_s", "s", stage("sim.comm"))
	res.setLayer("sim.comm_cells", "count", float64(c.commCells))
	res.setLayer("ceer.fit_s", "s", stage("ceer.fit"))
	res.setLayer("regress.models", "count", float64(c.models))
	res.setLayer("ceer.compile_s", "s", stage("ceer.compile"))
	res.setLayer("ceer.compile_evals", "count", float64(c.compileEvals))
	res.setLayer("ceer.table_kb", "kB", float64(c.tableBytes)/1024)
	res.setLayer("ceer.save_s", "s", stage("ceer.save"))
	res.setLayer("ceer.model_bytes", "B", float64(c.modelBytes))
}

// selfTimesByReq is selfTimes per request id.
func selfTimesByReq(spans []span) map[int64]map[string]int64 {
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := make(map[int64]map[string]int64, len(byReq))
	for req, ss := range byReq {
		out[req] = selfTimes(ss)
	}
	return out
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

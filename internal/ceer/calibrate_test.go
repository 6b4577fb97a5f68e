package ceer

// Calibration loop tests: drift detection on an injected slowdown,
// hot-swap publication under concurrent readers, deterministic replay,
// skip accounting, v2 seeding, and the golden report gate.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// updateCalibGolden regenerates testdata/calib_obs.jsonl and
// testdata/calib_report_golden.txt:
//
//	go test ./internal/ceer -run TestCalibrateGoldenReport -update-calib-golden
var updateCalibGolden = flag.Bool("update-calib-golden", false,
	"regenerate the calibration golden fixtures")

// bundleObsList materializes a bundle's observation stream for tests
// that reorder or rewrite it.
func bundleObsList(t *testing.T, b *trace.Bundle) []trace.Obs {
	t.Helper()
	var out []trace.Obs
	if err := b.Observations(func(o trace.Obs) error { out = append(out, o); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// slowObs scales the observed seconds of one device — the "this GPU
// model got slower" drift scenario.
func slowObs(obs []trace.Obs, m gpu.ID, factor float64) []trace.Obs {
	out := make([]trace.Obs, len(obs))
	for i, o := range obs {
		if o.GPU == m {
			o.Seconds *= factor
		}
		out[i] = o
	}
	return out
}

// slowedT4Stream is TestCalibrateDriftHotSwap's input: a predictor
// trained on campaignNames, and its campaign's observations with T4
// slowed 2×, streamed twice.
func slowedT4Stream(t *testing.T) (*Predictor, []trace.Obs) {
	t.Helper()
	pred, res, err := testPipeline(1).TrainOn(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	stream := slowObs(bundleObsList(t, res.Bundle), gpu.T4, 2)
	return pred, append(stream, stream...)
}

// TestCalibrateDriftHotSwap is the acceptance journey: a 2× slowdown
// injected on one device must be flagged within a bounded observation
// window, trigger refits, and publish the recalibrated predictor
// through the CompiledBox while readers hammer it concurrently.
func TestCalibrateDriftHotSwap(t *testing.T) {
	pred, stream := slowedT4Stream(t)
	graphs := make([]*graph.Graph, len(campaignNames))
	for i, name := range campaignNames {
		graphs[i] = zoo.MustBuild(name, 32)
	}
	g := graphs[0]
	orig, err := compileFor(t, pred, g).PredictIteration(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}

	pol := DefaultCalibrationPolicy()
	cal, err := NewCalibrator(pred, pol)
	if err != nil {
		t.Fatal(err)
	}
	box := &CompiledBox{}
	if err := cal.BindBox(box, graphs); err != nil {
		t.Fatal(err)
	}
	if box.Load() == nil {
		t.Fatal("BindBox should publish an initial compilation")
	}

	// Reader hammer: concurrent predictions against whatever tables the
	// box currently serves, racing the calibration loop's hot-swaps.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := box.Load().PredictIteration(g, gpu.T4, 1, Full); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for _, o := range stream {
		if err := cal.Calibrate(o); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	rep := cal.Report()
	if rep.Refits == 0 {
		t.Fatal("a sustained 2x slowdown should trigger refits")
	}
	if rep.Swaps != rep.Refits {
		t.Errorf("with a bound box every refit should hot-swap: %d refits, %d swaps", rep.Refits, rep.Swaps)
	}
	drifted := 0
	for _, cl := range rep.Cells {
		if cl.GPU != gpu.T4 || cl.DriftEvents == 0 {
			continue
		}
		drifted++
		if cl.FirstDriftObs == 0 || cl.FirstDriftObs > 2*pol.Drift.Window {
			t.Errorf("cell %s/%s first drift at observation %d, want within %d",
				cl.GPU, cl.OpType, cl.FirstDriftObs, 2*pol.Drift.Window)
		}
	}
	if drifted == 0 {
		t.Fatal("no T4 cell detected the 2x slowdown")
	}

	// The recalibrated predictor has moved toward the slowed timings,
	// and the box serves it.
	recal, err := compileFor(t, cal.Predictor(), g).PredictIteration(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	if recal.HeavySeconds <= orig.HeavySeconds {
		t.Errorf("recalibrated heavy seconds %v should exceed the original %v after a 2x slowdown",
			recal.HeavySeconds, orig.HeavySeconds)
	}
	if box.Load().Predictor() != cal.Predictor() {
		t.Error("box should serve the latest recalibrated predictor")
	}
	// The original predictor was never mutated: copy-on-write refits.
	after, err := compileFor(t, pred, g).PredictIteration(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	if !eqExact(after.HeavySeconds, orig.HeavySeconds) {
		t.Error("calibration mutated the original predictor")
	}
}

// TestRefitTablesMatchCompile: a refit re-evaluates only the table run
// it re-solved, yet after every refit the tables a bound box serves
// over the 12 zoo graphs equal a full Compile of the recalibrated
// predictor, on TestCalibrateDriftHotSwap's stream and on the golden
// fixture.
func TestRefitTablesMatchCompile(t *testing.T) {
	var graphs []*graph.Graph
	for _, name := range zoo.Names() {
		graphs = append(graphs, zoo.MustBuild(name, 32))
	}
	cases := []struct {
		name  string
		input func(*testing.T) (*Predictor, CalibrationPolicy, []trace.Obs)
	}{
		{"drift-hot-swap", func(t *testing.T) (*Predictor, CalibrationPolicy, []trace.Obs) {
			pred, stream := slowedT4Stream(t)
			return pred, DefaultCalibrationPolicy(), stream
		}},
		{"golden", func(t *testing.T) (*Predictor, CalibrationPolicy, []trace.Obs) {
			pred, err := LoadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join("testdata", "calib_obs.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			stream, err := trace.ReadObsLog(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return pred, calibGoldenPolicy(), stream
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pred, pol, stream := tc.input(t)
			cal, err := NewCalibrator(pred, pol)
			if err != nil {
				t.Fatal(err)
			}
			box := &CompiledBox{}
			if err := cal.BindBox(box, graphs); err != nil {
				t.Fatal(err)
			}
			published, refits := box.Load(), 0
			for i, o := range stream {
				if err := cal.Calibrate(o); err != nil {
					t.Fatal(err)
				}
				if box.Load() == published {
					continue
				}
				published = box.Load()
				refits++
				if !reflect.DeepEqual(published, compileFor(t, cal.Predictor(), graphs...)) {
					t.Fatalf("refit %d (observation %d): published tables differ from a full compile", refits, i+1)
				}
			}
			if rep := cal.Report(); refits == 0 || rep.Refits != refits {
				t.Fatalf("%d published refits, report counts %d; want equal and nonzero", refits, rep.Refits)
			}
			t.Logf("%d refits, each equal to a full compile", refits)
		})
	}
}

// TestCalibrateDeterministicReplay: the same observation log against
// the same predictor yields byte-identical reports and recalibrated
// predictors, run after run.
func TestCalibrateDeterministicReplay(t *testing.T) {
	p, bundle := predictor(t)
	var log bytes.Buffer
	if err := trace.WriteObsLog(&log, bundle); err != nil {
		t.Fatal(err)
	}
	pol := DefaultCalibrationPolicy()
	pol.Drift.Window = 8
	pol.Drift.SignRun = 4
	pol.RefitEvery = 64
	run := func() (CalibrationReport, []byte, []byte) {
		cal, err := NewCalibrator(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := cal.Replay(bytes.NewReader(log.Bytes()), nil); err != nil {
			t.Fatal(err)
		}
		rep := cal.Report()
		var text bytes.Buffer
		if err := rep.Render(&text); err != nil {
			t.Fatal(err)
		}
		return rep, text.Bytes(), savedBytes(t, cal.Predictor())
	}
	rep1, text1, pred1 := run()
	_, text2, pred2 := run()
	if rep1.Applied == 0 {
		t.Fatal("replay applied no observations")
	}
	if rep1.Refits == 0 {
		t.Error("RefitEvery=64 over the training stream should force refits")
	}
	if !bytes.Equal(text1, text2) {
		t.Error("calibration report is not deterministic")
	}
	if !bytes.Equal(pred1, pred2) {
		t.Error("recalibrated predictor is not byte-deterministic")
	}
}

// TestCalibrateSkipCounters pins the skip accounting: non-heavy ops,
// unmodeled cells, and feature-arity mismatches are counted and
// ignored; invalid observations are errors.
func TestCalibrateSkipCounters(t *testing.T) {
	p, _ := predictor(t)
	om, ok := p.OpModelFor(gpu.V100, ops.Conv2D)
	if !ok {
		t.Fatal("trained predictor lacks a v100 Conv2D model")
	}
	// Clone before deleting a model: the cached predictor is shared.
	clone := p.withOpModel(om)
	delete(clone.opModels[gpu.T4], ops.Conv2D)
	cal, err := NewCalibrator(clone, DefaultCalibrationPolicy())
	if err != nil {
		t.Fatal(err)
	}

	feats := make([]float64, om.Fit.NumFeatures)
	for i := range feats {
		feats[i] = float64(i + 1)
	}
	for _, o := range []trace.Obs{
		{CNN: "x", GPU: gpu.V100, Op: ops.ApplyMomentum, Features: []float64{1}, Seconds: 1e-5},
		{CNN: "x", GPU: gpu.T4, Op: ops.Conv2D, Features: feats, Seconds: 1e-3},
		{CNN: "x", GPU: gpu.V100, Op: ops.Conv2D, Features: append([]float64{1}, feats...), Seconds: 1e-3},
		{CNN: "x", GPU: gpu.V100, Op: ops.Conv2D, Features: feats, Seconds: 1e-3},
	} {
		if err := cal.Calibrate(o); err != nil {
			t.Fatal(err)
		}
	}
	rep := cal.Report()
	if rep.Observations != 4 || rep.Applied != 1 ||
		rep.SkippedClass != 1 || rep.SkippedUnmodeled != 1 || rep.SkippedShape != 1 {
		t.Errorf("counters = %+v, want 4 seen / 1 applied / 1+1+1 skipped", rep)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].GPU != gpu.V100 || rep.Cells[0].OpType != ops.Conv2D {
		t.Errorf("cells = %+v, want exactly the applied v100/Conv2D cell", rep.Cells)
	}
	if err := cal.Calibrate(trace.Obs{CNN: "x", GPU: "nope", Op: ops.Conv2D, Features: feats, Seconds: 1}); err == nil {
		t.Error("an invalid observation should be an error, not a skip")
	}
}

// TestCalibrateV2PredictorSeedsEmptyStats: calibrating a predictor
// loaded from a v2 file (no persisted statistics) seeds empty
// accumulators from the model shapes, so the loop still works — the
// cell's total just starts at zero.
func TestCalibrateV2PredictorSeedsEmptyStats(t *testing.T) {
	p, err := LoadFile(filepath.Join("testdata", "predictor_seed1_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	om, ok := p.OpModelFor(gpu.V100, ops.Conv2D)
	if !ok {
		t.Fatal("v2 predictor lacks a v100 Conv2D model")
	}
	if om.Stats != nil {
		t.Fatal("a v2 file must not carry statistics")
	}
	cal, err := NewCalibrator(p, DefaultCalibrationPolicy())
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, om.Fit.NumFeatures)
	for i := range feats {
		feats[i] = float64(i + 1)
	}
	for i := 0; i < 5; i++ {
		o := trace.Obs{CNN: "x", GPU: gpu.V100, Op: ops.Conv2D, Features: feats, Seconds: 1e-3}
		if err := cal.Calibrate(o); err != nil {
			t.Fatal(err)
		}
	}
	rep := cal.Report()
	if len(rep.Cells) != 1 {
		t.Fatalf("touched %d cells, want 1", len(rep.Cells))
	}
	cl := rep.Cells[0]
	if cl.Applied != 5 || cl.TrainObs != 5 {
		t.Errorf("v2 cell applied=%d train_obs=%d, want 5/5 (empty seed)", cl.Applied, cl.TrainObs)
	}
	if cl.Refits != 0 {
		t.Errorf("5 observations under a 24-window should not refit, got %d", cl.Refits)
	}
}

// TestCalibrateRefusesOverflowedStats: an observation whose features
// overflow the cell's XᵀX makes the due refit fail with the snapshot
// error, and the serving predictor stays the one before it.
func TestCalibrateRefusesOverflowedStats(t *testing.T) {
	p, err := LoadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	om, ok := p.OpModelFor(gpu.T4, ops.Conv2D)
	if !ok {
		t.Fatal("the golden predictor lacks a t4 Conv2D model")
	}
	pol := DefaultCalibrationPolicy()
	pol.RefitEvery = 1
	cal, err := NewCalibrator(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, om.Fit.NumFeatures)
	for i := range feats {
		feats[i] = 1e200
	}
	err = cal.Calibrate(trace.Obs{CNN: "x", GPU: gpu.T4, Op: ops.Conv2D, Features: feats, Seconds: 1})
	if err == nil || !strings.Contains(err.Error(), "snapshotting recalibrated stats") ||
		!strings.Contains(err.Error(), "non-finite xtx") {
		t.Fatalf("refit over an overflowed XᵀX: error %v, want the snapshot's non-finite refusal", err)
	}
	if cal.Predictor() != p {
		t.Error("a refused refit replaced the serving predictor")
	}
}

// TestCalibrateReplayPreemption: an injected preemption aborts the
// replay with the typed fault; everything before it was processed.
func TestCalibrateReplayPreemption(t *testing.T) {
	p, bundle := predictor(t)
	var log bytes.Buffer
	if err := trace.WriteObsLog(&log, bundle); err != nil {
		t.Fatal(err)
	}
	cal, err := NewCalibrator(p, DefaultCalibrationPolicy())
	if err != nil {
		t.Fatal(err)
	}
	inj := mustInjector(t, &faults.Spec{Seed: 1, Preempt: []faults.PreemptPoint{
		{Stage: "calibrate", K: 3, Attempt: 1},
	}})
	err = cal.Replay(bytes.NewReader(log.Bytes()), inj)
	if !faults.IsPreempted(err) {
		t.Fatalf("replay should abort preempted, got %v", err)
	}
	if got := cal.Report().Observations; got != 2 {
		t.Errorf("observations before the preemption = %d, want 2", got)
	}
}

// calibGoldenPolicy is the fixed policy of the golden report gate: a
// small window so the vgg-11 fixture stream drifts, plus scheduled
// refits.
func calibGoldenPolicy() CalibrationPolicy {
	pol := DefaultCalibrationPolicy()
	pol.Drift.Window = 8
	pol.Drift.SignRun = 4
	pol.RefitEvery = 32
	return pol
}

// TestCalibrateGoldenReport is the byte-level regression gate of the
// calibration loop: replaying the committed observation log (a vgg-11
// campaign with a 2x T4 slowdown, streamed twice) against the
// committed predictor under a 5% transient fault rate must reproduce
// the committed report byte for byte.
func TestCalibrateGoldenReport(t *testing.T) {
	obsPath := filepath.Join("testdata", "calib_obs.jsonl")
	goldenPath := filepath.Join("testdata", "calib_report_golden.txt")
	if *updateCalibGolden {
		res, err := testPipeline(1).Campaign(context.Background(), zoo.Build, campaignNames[:1])
		if err != nil {
			t.Fatal(err)
		}
		stream := slowObs(bundleObsList(t, res.Bundle), gpu.T4, 2)
		var buf bytes.Buffer
		ow := trace.NewObsWriter(&buf)
		for pass := 0; pass < 2; pass++ {
			for _, o := range stream {
				if err := ow.Write(o); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ow.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pred, err := LoadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	obsData, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := NewCalibrator(pred, calibGoldenPolicy())
	if err != nil {
		t.Fatal(err)
	}
	inj := mustInjector(t, &faults.Spec{Seed: 7, TransientRate: 0.05})
	if err := cal.Replay(bytes.NewReader(obsData), inj); err != nil {
		t.Fatalf("transient faults must degrade gracefully, not abort: %v", err)
	}
	rep := cal.Report()
	var got bytes.Buffer
	if err := rep.Render(&got); err != nil {
		t.Fatal(err)
	}
	if *updateCalibGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("calibration report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
	if rep.Dropped == 0 {
		t.Error("the 5% transient rate should drop at least one observation")
	}
	if rep.Refits == 0 {
		t.Error("the golden stream should trigger at least one refit")
	}
}

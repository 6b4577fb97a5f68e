package a10g

// These tests exercise the whole stack over the five-device catalog
// (four paper GPUs + the A10G registered by this package). They live
// here — not in internal/ceer — because registration is global to the
// test binary: keeping the extras out of the core packages' test
// binaries preserves their exact four-device golden values.

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/zoo"
)

func TestRegisterIdempotent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Register()
		}()
	}
	wg.Wait()
	Register()

	dev, ok := gpu.Lookup(A10G)
	if !ok {
		t.Fatal("A10G not registered")
	}
	if dev.Family != "G5" || dev.MemoryGB != 24 {
		t.Errorf("unexpected A10G spec: %+v", dev)
	}
	if len(gpu.All()) != 5 {
		t.Fatalf("registry has %d devices, want 5", len(gpu.All()))
	}
	if _, ok := cloud.FindInstance("g5.xlarge"); !ok {
		t.Error("g5.xlarge not in catalog")
	}
	if _, ok := cloud.FindInstance("g5.12xlarge"); !ok {
		t.Error("g5.12xlarge not in catalog")
	}
}

// testPipeline mirrors internal/ceer's campaign test configuration.
func testPipeline(workers int) ceer.Pipeline {
	pl := ceer.DefaultPipeline(11)
	pl.ProfileIterations = 40
	pl.CommIterations = 10
	pl.Retain = 16
	pl.Workers = workers
	return pl
}

var campaignNames = []string{"vgg-11", "inception-v1", "resnet-50"}

// TestCampaignParallelDeterminismFiveDevices extends the PR 1
// serial-vs-parallel gate to the five-device catalog: with the A10G
// registered, a Workers=8 campaign must still be indistinguishable from
// Workers=1 — deeply equal bundle and observations and a byte-identical
// serialized predictor.
func TestCampaignParallelDeterminismFiveDevices(t *testing.T) {
	Register()
	if n := len(gpu.All()); n != 5 {
		t.Fatalf("expected the five-device catalog, got %d devices", n)
	}
	serialRes, err := testPipeline(1).Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	serialBundle, serialObs := serialRes.Bundle, serialRes.CommObs
	parallelRes, err := testPipeline(8).Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	parallelBundle, parallelObs := parallelRes.Bundle, parallelRes.CommObs
	if !reflect.DeepEqual(serialBundle, parallelBundle) {
		t.Error("parallel five-device campaign bundle differs from serial")
	}
	if !reflect.DeepEqual(serialObs, parallelObs) {
		t.Error("parallel five-device comm observations differ from serial")
	}
	if got := len(serialObs); got != len(campaignNames)*5*testPipeline(1).MaxK {
		t.Errorf("observation count %d does not cover 5 devices", got)
	}

	serialPred, err := ceer.Train(serialBundle, serialObs)
	if err != nil {
		t.Fatal(err)
	}
	parallelPred, err := ceer.Train(parallelBundle, parallelObs)
	if err != nil {
		t.Fatal(err)
	}
	var serialJSON, parallelJSON bytes.Buffer
	if err := serialPred.Save(&serialJSON); err != nil {
		t.Fatal(err)
	}
	if err := parallelPred.Save(&parallelJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parallelJSON.Bytes()) {
		t.Error("five-device predictors serialize differently for serial vs parallel campaigns")
	}
	if !bytes.Contains(serialJSON.Bytes(), []byte(`"a10g"`)) {
		t.Error("serialized predictor lacks a10g op models")
	}
}

// TestFiveDeviceTrainPersistRecommend drives the full user journey over
// the extended catalog: train on all five devices, persist, reload, and
// recommend — with the A10G competing in (and the G5 instances pricing)
// the candidate set. Running the journey twice must give identical
// bytes and an identical recommendation.
func TestFiveDeviceTrainPersistRecommend(t *testing.T) {
	Register()
	run := func() ([]byte, cloud.Config) {
		pred, _, err := testPipeline(0).TrainOn(context.Background(), zoo.Build, zoo.TrainingSet())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ceer.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		g := zoo.MustBuild("inception-v3", 32)
		cfgs := cloud.Configs(4)
		sawG5 := false
		for _, c := range cfgs {
			if c.GPU == A10G {
				sawG5 = true
			}
		}
		if !sawG5 {
			t.Fatal("candidate set lacks G5 configurations")
		}
		comp, err := ceer.Compile(loaded, []*graph.Graph{g})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := comp.Recommend(g, dataset.ImageNet, cloud.OnDemand, cfgs, ceer.MinimizeCost)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Candidates) != 20 { // 5 devices × 4 counts (P2 clamped to maxK=4)
			t.Errorf("expected 20 candidates over five devices, got %d", len(rec.Candidates))
		}
		return buf.Bytes(), rec.Best.Cfg
	}
	bytes1, best1 := run()
	bytes2, best2 := run()
	if !bytes.Equal(bytes1, bytes2) {
		t.Error("five-device training is not run-to-run deterministic")
	}
	if best1 != best2 {
		t.Errorf("recommendation not deterministic: %s vs %s", best1, best2)
	}

	// A prediction on the A10G itself must work end-to-end.
	loaded, err := ceer.Load(bytes.NewReader(bytes1))
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.MustBuild("inception-v3", 32)
	comp, err := ceer.Compile(loaded, []*graph.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := comp.PredictTraining(g, cloud.Config{GPU: A10G, K: 2}, dataset.ImageNet, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TotalSeconds <= 0 || pred.CostUSD <= 0 {
		t.Errorf("degenerate A10G prediction: %+v", pred)
	}
	if len(pred.Iter.UnseenHeavy) != 0 {
		t.Errorf("A10G prediction has unseen heavy ops %v after five-device training", pred.Iter.UnseenHeavy)
	}
}

package ceer

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/sim"
	"ceer/internal/zoo"
)

// testPipeline is a small but complete campaign configuration: enough
// iterations for stable fits, few enough to keep the test fast.
func testPipeline(workers int) Pipeline {
	pl := DefaultPipeline(11)
	pl.ProfileIterations = 40
	pl.CommIterations = 10
	pl.Retain = 16
	pl.Workers = workers
	return pl
}

var campaignNames = []string{"vgg-11", "inception-v1", "resnet-50"}

// TestCampaignParallelDeterminism is the serial-vs-parallel regression
// gate: a campaign run with Workers=8 must be indistinguishable from
// Workers=1 — deeply equal bundle and observations, and a byte-identical
// serialized predictor.
func TestCampaignParallelDeterminism(t *testing.T) {
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
		t.Error("parallel campaign bundle differs from serial")
	}
	if !reflect.DeepEqual(serialObs, parallelObs) {
		t.Error("parallel comm observations differ from serial")
	}

	serialPred, err := Train(serialBundle, serialObs)
	if err != nil {
		t.Fatal(err)
	}
	parallelPred, err := Train(parallelBundle, parallelObs)
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
		t.Error("trained predictors serialize differently for serial vs parallel campaigns")
	}

	// Spot-check a downstream prediction too: same graph, same config,
	// same numbers.
	g, err := zoo.Build("alexnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cloud.Config{GPU: gpu.V100, K: 2}
	a, err := compileFor(t, serialPred, g).PredictTraining(g, cfg, dataset.ImageNetSubset6400, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileFor(t, parallelPred, g).PredictTraining(g, cfg, dataset.ImageNetSubset6400, cloud.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("predictions diverge: %+v vs %+v", a, b)
	}
}

// TestCampaignBuildsEachGraphOnce pins the BuildCache fix: the campaign
// used to build every CNN twice (once for profiling, once for the
// communication stage).
func TestCampaignBuildsEachGraphOnce(t *testing.T) {
	var mu sync.Mutex
	counts := make(map[string]int)
	counting := func(name string, batch int64) (*graph.Graph, error) {
		mu.Lock()
		counts[name]++
		mu.Unlock()
		return zoo.Build(name, batch)
	}
	for _, workers := range []int{1, 4} {
		mu.Lock()
		for k := range counts {
			delete(counts, k)
		}
		mu.Unlock()
		pl := testPipeline(workers)
		if _, err := pl.Campaign(context.Background(), counting, campaignNames); err != nil {
			t.Fatal(err)
		}
		for _, name := range campaignNames {
			if counts[name] != 1 {
				t.Errorf("workers=%d: %s built %d times, want exactly 1", workers, name, counts[name])
			}
		}
	}
}

// TestCollectCommObsParallelMatchesSerial exercises the comm stage's
// fan-out in isolation (the campaign test covers it end to end).
func TestCollectCommObsParallelMatchesSerial(t *testing.T) {
	serial, err := testPipeline(1).CollectCommObs(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := testPipeline(6).CollectCommObs(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel CollectCommObs differs from serial")
	}
	wantLen := len(campaignNames) * 4 * testPipeline(1).MaxK
	if len(serial) != wantLen {
		t.Errorf("got %d observations, want %d", len(serial), wantLen)
	}
}

// TestCommObsAreTrainCommSeconds pins the comm stage to the ground
// truth's comm term: at Workers 1 and 3, every observation of
// CollectCommObs and of Campaign carries, bit for bit, the CommSeconds
// of a sim.Train run of its cell.
func TestCommObsAreTrainCommSeconds(t *testing.T) {
	pl := testPipeline(1)
	var want []CommObs
	for _, name := range campaignNames {
		g, err := zoo.Build(name, pl.Batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range gpu.All() {
			for k := 1; k <= pl.MaxK; k++ {
				meas, err := sim.Train(context.Background(), g, cloud.Config{GPU: m, K: k},
					dataset.ImageNetSubset6400, pl.CommIterations, pl.Seed+7)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, CommObs{CNN: name, GPU: m, K: k, Params: g.Params, Overhead: meas.CommSeconds})
			}
		}
	}
	same := func(got []CommObs) bool {
		if len(got) != len(want) {
			return false
		}
		for i, o := range got {
			w := want[i]
			if o.CNN != w.CNN || o.GPU != w.GPU || o.K != w.K || o.Params != w.Params ||
				math.Float64bits(o.Overhead) != math.Float64bits(w.Overhead) {
				return false
			}
		}
		return true
	}
	for _, workers := range []int{1, 3} {
		pl := testPipeline(workers)
		collected, err := pl.CollectCommObs(context.Background(), zoo.Build, campaignNames)
		if err != nil {
			t.Fatal(err)
		}
		if !same(collected) {
			t.Errorf("workers=%d: CollectCommObs differs from sim.Train's CommSeconds", workers)
		}
		res, err := pl.Campaign(context.Background(), zoo.Build, campaignNames)
		if err != nil {
			t.Fatal(err)
		}
		if !same(res.CommObs) {
			t.Errorf("workers=%d: Campaign's comm observations differ from sim.Train's CommSeconds", workers)
		}
	}
}

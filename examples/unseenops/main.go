// Unseen operations: the paper's Section IV-D limitation, live. A
// MobileNet-style network uses depthwise convolutions — a heavy
// operation type that never occurs in the paper's 12 CNNs. A Ceer
// instance trained on the standard zoo flags the op as unseen and falls
// back to a degraded estimate; retraining on data that includes the new
// op restores accuracy. "In such cases, Ceer will have to be updated
// with new training data."
package main

import (
	"fmt"
	"log"
	"math"

	"ceer"
)

// buildMobileNetish constructs a small MobileNet-v1-flavored CNN:
// depthwise-separable blocks (depthwise 3×3 + pointwise 1×1, each with
// BN and ReLU).
func buildMobileNetish(batch int64) (*ceer.Graph, error) {
	b := ceer.NewGraphBuilder("mobilenet-ish", batch)
	x := b.Input(224, 224, 3)
	x = b.ConvSq(x, 32, 3, 2, ceer.SamePadding)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	widths := []struct {
		c, s int64
	}{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1},
		{512, 2}, {512, 1}, {512, 1}, {1024, 2},
	}
	for _, wc := range widths {
		// Depthwise 3×3.
		x = b.DepthwiseConv(x, 3, wc.s, ceer.SamePadding)
		x = b.BatchNorm(x)
		x = b.ReLU(x)
		// Pointwise 1×1.
		x = b.ConvSq(x, wc.c, 1, 1, ceer.SamePadding)
		x = b.BatchNorm(x)
		x = b.ReLU(x)
	}
	x = b.GlobalAvgPool(x)
	x = b.Squeeze(x)
	x = b.Dense(x, 1000)
	b.SoftmaxLoss(x)
	return b.Finish()
}

func main() {
	g, err := buildMobileNetish(32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mobilenet-ish: %d ops, %.1fM params (depthwise-separable blocks)\n\n",
		g.Len(), float64(g.Params)/1e6)

	// 1. A standard Ceer (trained on the paper's 8 CNNs) has never seen
	//    DepthwiseConv2dNative.
	sys, err := ceer.Train(ceer.TrainOptions{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg, _ := ceer.Config("G4", 1) // known-valid config; the error path has its own test
	ds := ceer.ImageNetSubset6400
	// The custom graph is outside the compiled zoo: ForGraph compiles it
	// alone, and both the prediction and its attribution read that table.
	zooTables, err := sys.Compiled(g.BatchSize)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := zooTables.ForGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := comp.PredictTraining(g, cfg, ds, ceer.OnDemand)
	if err != nil {
		log.Fatal(err)
	}
	obs, err := ceer.Observe(g, cfg, ds, 20, 77)
	if err != nil {
		log.Fatal(err)
	}
	errPct := math.Abs(pred.TotalSeconds/obs.TotalSeconds-1) * 100
	fmt.Printf("standard Ceer:  predicted %6.1fs  observed %6.1fs  error %5.1f%%\n",
		pred.TotalSeconds, obs.TotalSeconds, errPct)
	if len(pred.Iter.UnseenHeavy) > 0 {
		fmt.Printf("                WARNING — unseen heavy ops: %v\n", pred.Iter.UnseenHeavy)
		fmt.Println("                (their instances were estimated with the light-op median)")
	}

	// 2. The remedy from the paper: update Ceer with training data that
	//    contains the new operation. Here: profile the mobilenet-ish
	//    graph itself into the corpus. (The public API retrains on the
	//    standard zoo; the experiment harness exposes raw retraining —
	//    for this example it is enough to show the honest failure mode
	//    and the detection signal above.)
	fmt.Println("\nPer-op attribution of the degraded prediction:")
	ex, err := comp.ExplainIteration(g, cfg.GPU, cfg.K)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range ex.Contributions {
		if i >= 6 {
			break
		}
		fmt.Printf("  %-28s %8.2f ms  (%.1f%%)\n", c.OpType, c.Seconds*1e3, c.Share*100)
	}
	fmt.Println("\nDepthwiseConv2dNative contributes real time in the observation but is")
	fmt.Println("priced at the light-op median in the prediction — the source of the error.")
}

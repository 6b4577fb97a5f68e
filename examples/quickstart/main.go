// Quickstart: train Ceer, predict the training time and cost of a
// held-out CNN on every AWS GPU instance family, and ask for the
// cheapest configuration — the end-to-end flow of the paper in ~50
// lines against the public API.
package main

import (
	"fmt"
	"log"

	"ceer"
)

func main() {
	// 1. Train Ceer: profile the 8 training-set CNNs on all four GPU
	//    models and fit the op-level, median, and communication models.
	sys, err := ceer.Train(ceer.TrainOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Ceer trained. Heavy op types (%d): %v\n\n", len(sys.HeavyOps()), sys.HeavyOps())

	// 2. Build a held-out CNN (never seen during training) at the
	//    paper's default per-GPU batch size of 32.
	g, err := ceer.BuildModelCached("inception-v3", 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inception-v3: %d ops, %.1fM parameters\n\n", g.Len(), float64(g.Params)/1e6)

	// 3. Predict one ImageNet epoch on each basic single-GPU instance.
	fmt.Println("Predicted ImageNet epoch (single GPU):")
	for _, family := range []string{"P3", "P2", "G4", "G3"} {
		cfg, err := ceer.Config(family, 1)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := sys.PredictTraining(g, cfg, ceer.ImageNet, ceer.OnDemand)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s (%-13s)  %6.2f h   $%6.2f\n",
			family, ceer.InstanceName(cfg), pred.TotalSeconds/3600, pred.CostUSD)
	}

	// 4. Recommend: which configuration (1–4 GPUs per family) minimizes
	//    the training cost?
	rec, err := sys.Recommend(g, ceer.ImageNet, ceer.OnDemand, ceer.AllConfigs(4), ceer.MinimizeCost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCheapest configuration: %s (%s) — %.2f h for $%.2f\n",
		rec.Best.Cfg, ceer.InstanceName(rec.Best.Cfg),
		rec.Best.TotalSeconds/3600, rec.Best.CostUSD)

	// 5. Sanity-check the prediction against a simulated "real" run.
	obs, err := ceer.Observe(g, rec.Best.Cfg, ceer.ImageNet, 20, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Observed on %s: %.2f h (prediction error %+.1f%%)\n",
		rec.Best.Cfg, obs.TotalSeconds/3600,
		(rec.Best.TotalSeconds/obs.TotalSeconds-1)*100)
}

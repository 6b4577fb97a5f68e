// Scaling study: reproduce the paper's Figure 6 interactively — how
// training time drops (sub-linearly!) with the number of GPUs under
// data parallelism, observed versus Ceer-predicted, for any built-in
// CNN.
//
// Usage: go run ./examples/scaling [model]   (default inception-v1)
package main

import (
	"fmt"
	"log"
	"os"

	"ceer"
)

func main() {
	model := "inception-v1"
	if len(os.Args) > 1 {
		model = os.Args[1]
	}

	sys, err := ceer.Train(ceer.TrainOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	g, err := ceer.BuildModelCached(model, 32)
	if err != nil {
		log.Fatal(err)
	}
	ds := ceer.ImageNetSubset6400
	fmt.Printf("Data-parallel scaling of %s over %d ImageNet samples (batch 32/GPU)\n\n",
		model, ds.Samples)
	fmt.Println("GPU   k   observed(s)  predicted(s)  speedup  comm share")
	fmt.Println("----------------------------------------------------------")

	for _, family := range []string{"P3", "P2", "G4", "G3"} {
		var base float64
		for k := 1; k <= 4; k++ {
			cfg, err := ceer.Config(family, k)
			if err != nil {
				log.Fatal(err)
			}
			obs, err := ceer.Observe(g, cfg, ds, 15, 11)
			if err != nil {
				log.Fatal(err)
			}
			pred, err := sys.PredictTraining(g, cfg, ds, ceer.OnDemand)
			if err != nil {
				log.Fatal(err)
			}
			if k == 1 {
				base = obs.TotalSeconds
			}
			fmt.Printf("%-4s  %d  %10.1f  %12.1f  %6.2fx  %9.1f%%\n",
				family, k, obs.TotalSeconds, pred.TotalSeconds,
				base/obs.TotalSeconds,
				obs.CommSeconds/obs.PerIterSeconds*100)
		}
		fmt.Println()
	}
	fmt.Println("Note the diminishing returns: synchronization overhead grows with k")
	fmt.Println("(paper Section III-D), so 4 GPUs never deliver a 4x speedup.")
}

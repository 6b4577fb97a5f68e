// Command ceer-experiments regenerates the paper's tables and figures
// (Figures 1–12, the Section III-A class shares, the Section IV model
// quality and ablation analyses, and the overall accuracy summary).
//
// Usage:
//
//	ceer-experiments                  # run everything
//	ceer-experiments -run fig8,fig11  # run a subset
//	ceer-experiments -list            # list experiment IDs
//	ceer-experiments -run fig1 -dot   # also dump the Fig. 1 DOT graph
//	ceer-experiments -markdown        # emit results as Markdown sections
//	ceer-experiments -workers 8       # bound campaign/figure parallelism
//
// Independent figures execute concurrently over one trained context
// (-workers; 0 = GOMAXPROCS, 1 = serial). Output is rendered in the
// requested order and is identical for every worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ceer/internal/experiments"
	"ceer/internal/faults"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	seed := flag.Uint64("seed", 42, "measurement noise seed")
	iters := flag.Int("iters", 200, "profiling iterations for Ceer training")
	measure := flag.Int("measure", 20, "iterations sampled per observed run")
	dot := flag.Bool("dot", false, "with fig1: print the full DOT graph")
	markdown := flag.Bool("markdown", false, "wrap each experiment in a Markdown section")
	workers := flag.Int("workers", 0, "parallel workers for the campaign and across figures; 0 = GOMAXPROCS, 1 = serial")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
	retries := flag.Int("retries", 0, "per-cell retry budget for transient campaign faults")
	faultSpec := flag.String("fault-spec", "", "JSON fault-injection spec file for the training campaign (chaos testing)")
	checkpoint := flag.String("checkpoint", "", "journal campaign progress to this file and resume from it")
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if err := runAll(*run, *seed, *iters, *measure, *workers, *dot, *markdown,
		*timeout, *retries, *faultSpec, *checkpoint); err != nil {
		fmt.Fprintln(os.Stderr, "ceer-experiments:", err)
		os.Exit(1)
	}
}

func runAll(runList string, seed uint64, iters, measure, workers int, dot, markdown bool,
	timeout time.Duration, retries int, faultSpec, checkpoint string) error {
	var names []string
	if runList != "" {
		names = strings.Split(runList, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var spec *faults.Spec
	if faultSpec != "" {
		var err error
		spec, err = faults.LoadSpec(faultSpec)
		if err != nil {
			return err
		}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "training Ceer on the 8 training-set CNNs (seed %d)...\n", seed)
	ectx, err := experiments.NewContext(ctx, experiments.Options{
		Seed:              seed,
		ProfileIterations: iters,
		MeasureIters:      measure,
		Workers:           workers,
		Retries:           retries,
		Faults:            spec,
		Checkpoint:        checkpoint,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained in %.1fs\n\n", time.Since(start).Seconds())
	if !ectx.Coverage.Complete() {
		fmt.Fprintf(os.Stderr, "warning: campaign incomplete (%s); degraded devices: %v\n\n",
			ectx.Coverage, ectx.Pred.DegradedDevices())
	}

	results, err := experiments.RunAll(ctx, ectx, names, workers)
	if err != nil {
		return err
	}
	for _, r := range results {
		if markdown {
			fmt.Printf("## %s\n\n```\n", r.Name)
		}
		if err := r.Res.Table().Render(os.Stdout); err != nil {
			return err
		}
		if markdown {
			fmt.Printf("```\n\n")
		}
		if r.Name == "fig1" && dot {
			if f1, ok := r.Res.(*experiments.Fig01Result); ok {
				fmt.Println(f1.DOT)
			}
		}
	}
	return nil
}

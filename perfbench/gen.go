package main

import (
	"bytes"
	"context"
	"runtime"
	"strings"

	"ceer"
	"ceer/internal/gpu"
	"ceer/internal/serve/loadgen"
	"ceer/internal/sim"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// Request kinds of the read mix. A sweep predicts every candidate
// configuration, a point predicts one, a recommend ranks them all.
const (
	kindSweep     = "sweep"
	kindPoint     = "point"
	kindRecommend = "recommend"
)

var kinds = []string{kindSweep, kindPoint, kindRecommend}

// readStream is the read mix over all zoo models: 65% /v1/predict (half
// with one config, half the full sweep), 35% /v1/recommend, 20% priced
// at market ratios. Op i depends only on (seed, i).
func readStream(seed uint64, n int) []loadgen.Op {
	return loadgen.Generate(loadgen.Spec{
		Seed:     seed,
		Requests: n,
		Models:   ceer.Models(),
		Configs:  configNames(),
	})
}

func configNames() []string {
	var out []string
	for _, cfg := range ceer.AllConfigs(4) {
		out = append(out, cfg.String())
	}
	return out
}

func kindOf(op loadgen.Op) string {
	switch {
	case op.Path == "/v1/recommend":
		return kindRecommend
	case strings.Contains(op.RawQuery, "config="):
		return kindPoint
	default:
		return kindSweep
	}
}

// arrivals is the Poisson schedule of one open-loop phase: offsets in
// nanoseconds from the phase start, ceil(rate·seconds) of them, derived
// from the seed and the rate alone.
func arrivals(seed uint64, rate, seconds float64) []int64 {
	n := int(rate*seconds + 0.999999)
	if n < 1 {
		n = 1
	}
	return loadgen.PoissonArrivals(seed^uint64(rate*1000), rate, n)
}

// Drifted-observation generation. The stream is the observation log of a
// second profiling campaign (its own seed, derived from the workload
// seed) with one device's seconds scaled, as if that hardware slowed
// down: enough to trip the default drift policy, little enough that the
// refit tables pass the daemon's golden probe.
const (
	secondCampaignSalt = 0x5ec0d
	driftFactor        = 1.3
	driftIters         = 50  // profile depth of the second campaign
	batchLines         = 500 // observations per observe POST
)

type driftSpec struct {
	Seed       uint64
	Iterations int
	CNNs       []string
	Workers    int
}

// driftedObs returns the drifted observation log as JSONL bytes and the
// device whose timings were scaled: always the first registered device,
// so the refit work per pass does not change with the seed.
func driftedObs(ctx context.Context, ds driftSpec) ([]byte, gpu.ID, error) {
	devs := gpu.All()
	dev := devs[0]
	prof := &sim.Profiler{Seed: ds.Seed ^ secondCampaignSalt, Iterations: ds.Iterations, Retain: 64, Workers: ds.Workers}
	bundle, err := prof.ProfileAll(ctx, zoo.Build, ds.CNNs, zoo.DefaultBatch, devs)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	w := trace.NewObsWriter(&buf)
	err = bundle.Observations(func(o trace.Obs) error {
		if o.GPU == dev {
			o.Seconds *= driftFactor
		}
		return w.Write(o)
	})
	if err != nil {
		return nil, "", err
	}
	if err := w.Flush(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), dev, nil
}

// driftBatches is the workload's drifted stream at seed, cut into
// observe bodies of batchLines lines.
func driftBatches(ctx context.Context, seed uint64) ([][]byte, gpu.ID, error) {
	log, dev, err := driftedObs(ctx, driftSpec{Seed: seed, Iterations: driftIters, CNNs: zoo.TrainingSet(), Workers: runtime.NumCPU()})
	return splitBatches(log, batchLines), dev, err
}

// splitBatches cuts a JSONL log into bodies of at most n lines each.
func splitBatches(log []byte, n int) [][]byte {
	var out [][]byte
	for len(log) > 0 {
		end, lines := 0, 0
		for end < len(log) && lines < n {
			i := bytes.IndexByte(log[end:], '\n')
			if i < 0 {
				end = len(log)
				break
			}
			end += i + 1
			lines++
		}
		out = append(out, log[:end])
		log = log[end:]
	}
	return out
}

package main

import (
	"math"

	"ceer"
	internal "ceer/internal/ceer"
	"ceer/internal/gpu"
	"ceer/internal/zoo"
)

// checkUnfolded compares the system's compiled tables with the naive
// per-op oracle (Predictor.PredictIterationUnfolded) on every zoo model,
// device and GPU count; each must agree within 1e-9 relative.
func checkUnfolded(res *result, sys *ceer.System) {
	comp, err := sys.Compiled(zoo.DefaultBatch)
	if err != nil {
		res.check(false, "compiling for the oracle check: %v", err)
		return
	}
	pred := sys.Predictor()
	worst := 0.0
	n := 0
	for _, name := range ceer.Models() {
		g, err := ceer.BuildModelCached(name, zoo.DefaultBatch)
		if err != nil {
			res.check(false, "building %s: %v", name, err)
			return
		}
		for _, m := range gpu.All() {
			for k := 1; k <= 4; k++ {
				got, err1 := comp.PredictIteration(g, m, k, internal.Full)
				want, err2 := pred.PredictIterationUnfolded(g, m, k, internal.Full)
				if err1 != nil || err2 != nil {
					res.check(false, "oracle check %s/%s/k=%d: %v / %v", name, m, k, err1, err2)
					return
				}
				n++
				for _, pair := range [][2]float64{
					{got.HeavySeconds, want.HeavySeconds}, {got.LightSeconds, want.LightSeconds},
					{got.CPUSeconds, want.CPUSeconds}, {got.CommSeconds, want.CommSeconds},
					{got.PerIterSeconds, want.PerIterSeconds},
				} {
					if d := math.Abs(pair[0] - pair[1]); d > 0 {
						worst = math.Max(worst, d/math.Abs(pair[1]))
					}
				}
			}
		}
	}
	res.check(worst <= 1e-9, "compiled predictions differ from PredictIterationUnfolded by %.3g relative (limit 1e-9) over %d probes", worst, n)
}

package sim

import (
	"context"
	"testing"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/zoo"
)

// BenchmarkProfile times the campaign's profile stage at the pipeline's
// depth: the 8 training CNNs at batch 32 on every device, 200
// iterations, 64 retained samples per node, one worker. Graphs are
// built once, outside the timed loop. It reports node samples drawn per
// second.
func BenchmarkProfile(b *testing.B) {
	var graphs []*graph.Graph
	samples := 0
	p := &Profiler{Seed: 1, Iterations: 200, Retain: 64, Workers: 1}
	for _, name := range zoo.TrainingSet() {
		g, err := zoo.Build(name, 32)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
		samples += g.Len() * p.Iterations * len(gpu.All())
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			for _, m := range gpu.All() {
				if _, err := p.Profile(ctx, g, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

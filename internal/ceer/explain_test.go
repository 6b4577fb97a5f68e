package ceer

import (
	"math"
	"testing"

	"ceer/internal/gpu"
	"ceer/internal/ops"
	"ceer/internal/zoo"
)

func TestExplainIteration(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("vgg-19", 32)
	ex, err := compileFor(t, p, g).ExplainIteration(g, gpu.V100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Contributions) == 0 {
		t.Fatal("no contributions")
	}
	// Contributions sorted descending.
	for i := 1; i < len(ex.Contributions); i++ {
		if ex.Contributions[i].Seconds > ex.Contributions[i-1].Seconds {
			t.Error("contributions not sorted by predicted time")
		}
	}
	// Attribution plus comm must reassemble the prediction.
	sum := ex.Iter.CommSeconds
	for _, c := range ex.Contributions {
		sum += c.Seconds
		if c.Count <= 0 {
			t.Errorf("%s has non-positive count", c.OpType)
		}
	}
	if math.Abs(sum-ex.Iter.PerIterSeconds) > 1e-9*ex.Iter.PerIterSeconds {
		t.Errorf("attribution sums to %v, prediction is %v", sum, ex.Iter.PerIterSeconds)
	}
	// VGG-19's top contributor must be a conv-family op.
	top := ex.Contributions[0].OpType
	if top != ops.Conv2DBackpropFilter && top != ops.Conv2D && top != ops.Conv2DBackpropInput {
		t.Errorf("VGG-19 top contributor = %s, want a convolution op", top)
	}
	// Shares sum to ~1.
	shareSum := ex.CommShare
	for _, c := range ex.Contributions {
		shareSum += c.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("shares sum to %v", shareSum)
	}
}

func TestExplainIterationPropagatesErrors(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	if _, err := compileFor(t, p, g).ExplainIteration(g, gpu.V100, 7); err == nil {
		t.Error("untrained k should error")
	}
}

// TestExplainNodesMatchesIteration: on every zoo CNN and device, the
// per-node attribution must add up to the compute part of the
// prediction and to the per-type attribution, type by type.
func TestExplainNodesMatchesIteration(t *testing.T) {
	c, graphs := compiled(t)
	for _, g := range graphs {
		for _, m := range gpu.All() {
			ex, err := c.ExplainIteration(g, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := c.ExplainNodes(g, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(nodes) != g.Len() {
				t.Fatalf("%s/%s: %d node rows for %d nodes", g.Name, m, len(nodes), g.Len())
			}
			byType := make(map[ops.Type]float64)
			compute := 0.0
			for i, n := range nodes {
				if i > 0 && n.Seconds > nodes[i-1].Seconds {
					t.Fatalf("%s/%s: node rows not sorted by predicted time", g.Name, m)
				}
				byType[n.OpType] += n.Seconds
				compute += n.Seconds
			}
			if want := ex.Iter.PerIterSeconds - ex.Iter.CommSeconds; relDiff(compute, want) > equivTol {
				t.Errorf("%s/%s: nodes sum to %v, compute prediction is %v", g.Name, m, compute, want)
			}
			for _, tc := range ex.Contributions {
				if d := relDiff(byType[tc.OpType], tc.Seconds); d > equivTol {
					t.Errorf("%s/%s %s: nodes sum to %v, type attribution is %v", g.Name, m, tc.OpType, byType[tc.OpType], tc.Seconds)
				}
			}
		}
	}
}

package ceer

import (
	"fmt"
	"sort"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
)

// TypeContribution attributes a slice of a predicted iteration to one
// operation type.
type TypeContribution struct {
	OpType ops.Type
	// Class is Ceer's classification of the type.
	Class ops.Class
	// Count is the number of instances in the graph.
	Count int
	// Seconds is the predicted per-iteration time attributed to the
	// type.
	Seconds float64
	// Share is Seconds over the whole predicted iteration (including
	// communication).
	Share float64
}

// Explanation decomposes one per-iteration prediction for reporting:
// per-type contributions sorted by predicted time, plus the
// communication overhead term.
type Explanation struct {
	Iter          IterPrediction
	Contributions []TypeContribution
	// CommShare is the communication overhead's share of the iteration.
	CommShare float64
}

// ExplainIteration predicts one training iteration and attributes the
// prediction to operation types — the "why is this CNN slow here"
// companion to PredictIteration (used by `ceer predict -explain` and
// /v1/explain). Each class is attributed its count times the table's
// per-(device, class) time, so the attribution reads the same table as
// the prediction; use ExplainNodes for a per-node breakdown.
func (c *CompiledPredictor) ExplainIteration(g *graph.Graph, m gpu.ID, k int) (*Explanation, error) {
	iter, err := c.PredictIteration(g, m, k, Full)
	if err != nil {
		return nil, err
	}
	type acc struct {
		count   int
		seconds float64
	}
	byType := make(map[ops.Type]*acc)
	classes := c.fold.Classes()
	base := c.deviceIndex(m) * c.nc
	for _, pc := range c.fold.PerGraph(c.fold.GraphIndex(g)) {
		t := classes[pc.Class].Rep.Op.Type
		a := byType[t]
		if a == nil {
			a = &acc{}
			byType[t] = a
		}
		a.count += pc.Count
		a.seconds += float64(pc.Count) * c.times[base+pc.Class]
	}
	ex := &Explanation{Iter: iter}
	total := iter.PerIterSeconds
	for t, a := range byType {
		tc := TypeContribution{
			OpType:  t,
			Class:   c.p.Class.Of(t),
			Count:   a.count,
			Seconds: a.seconds,
		}
		if total > 0 {
			tc.Share = a.seconds / total
		}
		ex.Contributions = append(ex.Contributions, tc)
	}
	sort.Slice(ex.Contributions, func(i, j int) bool {
		if ex.Contributions[i].Seconds > ex.Contributions[j].Seconds {
			return true
		}
		if ex.Contributions[i].Seconds < ex.Contributions[j].Seconds {
			return false
		}
		return ex.Contributions[i].OpType < ex.Contributions[j].OpType
	})
	if total > 0 {
		ex.CommShare = iter.CommSeconds / total
	}
	return ex, nil
}

// NodeContribution attributes predicted per-iteration time to one DAG
// node.
type NodeContribution struct {
	ID     graph.NodeID
	Name   string
	OpType ops.Type
	Class  ops.Class
	Phase  graph.Phase
	// Seconds is the node's predicted compute time.
	Seconds float64
}

// ExplainNodes attributes a predicted iteration node by node — the
// per-node attribution for pinpointing an individual layer (used by
// `ceer predict -explain-nodes`). Nodes are returned sorted by
// predicted time (descending), ties by ID. The communication term has
// no node to attach to; read it from ExplainIteration.
//
// Each entry of the graph's own fold finds its global class by
// signature (the class table is signature-sorted), and the table's
// per-(device, class) time fans out to the entry's member nodes, so
// attribution does no model evaluations.
func (c *CompiledPredictor) ExplainNodes(g *graph.Graph, m gpu.ID) ([]NodeContribution, error) {
	if c.fold.GraphIndex(g) < 0 {
		return nil, fmt.Errorf("ceer: graph %q is not in the compiled set", g.Name)
	}
	di := c.deviceIndex(m)
	if di < 0 {
		return nil, fmt.Errorf("ceer: device %s is not in the compiled set", m)
	}
	classes := c.fold.Classes()
	fold := g.Fold()
	entries := fold.Entries()
	secs := make([]float64, len(entries))
	for i := range entries {
		sig := entries[i].Sig
		ci := sort.Search(len(classes), func(j int) bool { return classes[j].Sig >= sig })
		secs[i] = c.times[di*c.nc+ci]
	}
	out := make([]NodeContribution, 0, g.Len())
	for ni, n := range g.Nodes() {
		t := n.Op.Type
		out = append(out, NodeContribution{
			ID: n.ID, Name: n.Name, OpType: t, Class: c.p.Class.Of(t), Phase: n.Phase,
			Seconds: secs[fold.ClassOf(ni)],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds > out[j].Seconds {
			return true
		}
		if out[i].Seconds < out[j].Seconds {
			return false
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

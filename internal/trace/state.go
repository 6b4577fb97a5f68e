// Checkpoint-grade profile serialization. Unlike ExportJSON (a
// human-facing analysis artifact that stores derived statistics), the
// state codec round-trips the exact internal accumulator state —
// count, mean, M2, extremes, retention cap, raw samples — so a profile
// restored from a campaign checkpoint is bit-identical to the one that
// was measured: resuming a preempted campaign reproduces the very
// bytes an uninterrupted run would have produced. JSON numbers use
// Go's shortest-round-trip float encoding, so no precision is lost.

package trace

import (
	"encoding/json"
	"fmt"
	"math"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
)

// AggState is the exact exported state of an Agg.
type AggState struct {
	N        int       `json:"n"`
	Mean     float64   `json:"mean"`
	M2       float64   `json:"m2"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Cap      int       `json:"cap"`
	Retained []float64 `json:"retained,omitempty"`
}

// State exports the accumulator's internal state. Empty accumulators
// encode their ±Inf extremes as 0 with N == 0 (JSON cannot carry Inf);
// RestoreAggState re-creates the infinities.
func (a *Agg) State() AggState {
	s := AggState{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max,
		Cap: a.cap, Retained: a.retained}
	if a.n == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// RestoreAggState inverts State exactly.
func RestoreAggState(s AggState) *Agg {
	a := &Agg{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max,
		cap: s.Cap, retained: append([]float64(nil), s.Retained...)}
	if s.N == 0 {
		a.min, a.max = math.Inf(1), math.Inf(-1)
	}
	return a
}

// seriesState is the exact state of one Series.
type seriesState struct {
	Node        int       `json:"node"`
	Op          string    `json:"op"`
	Phase       string    `json:"phase"`
	Features    []float64 `json:"features"`
	InputBytes  int64     `json:"input_bytes"`
	OutputBytes int64     `json:"output_bytes"`
	Agg         AggState  `json:"agg"`
}

// profileState is the exact state of a Profile. Devices are keyed by
// their stable registry ID (not family), matching the persist v2
// discipline.
type profileState struct {
	CNN        string        `json:"cnn"`
	GPU        string        `json:"gpu"`
	Iterations int           `json:"iterations"`
	Params     int64         `json:"params"`
	BatchSize  int64         `json:"batch_size"`
	IterTotal  AggState      `json:"iter_total"`
	Series     []seriesState `json:"series"`
}

// MarshalState encodes the profile's exact state as one compact JSON
// value (single line, checkpoint-record friendly).
func (p *Profile) MarshalState() ([]byte, error) {
	out := profileState{
		CNN:        p.CNN,
		GPU:        string(p.GPU),
		Iterations: p.Iterations,
		Params:     p.Params,
		BatchSize:  p.BatchSize,
		IterTotal:  p.IterTotal.State(),
	}
	for _, s := range p.Series {
		out.Series = append(out.Series, seriesState{
			Node:        int(s.Node),
			Op:          string(s.OpType),
			Phase:       s.Phase.String(),
			Features:    s.Features,
			InputBytes:  s.InputBytes,
			OutputBytes: s.OutputBytes,
			Agg:         s.Agg.State(),
		})
	}
	return json.Marshal(out)
}

// UnmarshalState inverts MarshalState. The profile's device must be
// registered in the loading process.
func UnmarshalState(data []byte) (*Profile, error) {
	var in profileState
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("trace: decoding profile state: %w", err)
	}
	m := gpu.ID(in.GPU)
	if _, ok := gpu.Lookup(m); !ok {
		return nil, fmt.Errorf("trace: profile state references unregistered device %q", in.GPU)
	}
	if in.Iterations <= 0 {
		return nil, fmt.Errorf("trace: profile state has %d iterations", in.Iterations)
	}
	p := &Profile{
		CNN:        in.CNN,
		GPU:        m,
		Iterations: in.Iterations,
		Params:     in.Params,
		BatchSize:  in.BatchSize,
		IterTotal:  RestoreAggState(in.IterTotal),
	}
	for _, sj := range in.Series {
		tp := ops.Type(sj.Op)
		meta, ok := ops.Lookup(tp)
		if !ok {
			return nil, fmt.Errorf("trace: profile state has unknown op type %q", sj.Op)
		}
		p.Series = append(p.Series, &Series{
			CNN:         in.CNN,
			GPU:         m,
			Node:        graph.NodeID(sj.Node),
			OpType:      tp,
			Class:       meta.Class,
			Phase:       parsePhase(sj.Phase),
			Features:    sj.Features,
			InputBytes:  sj.InputBytes,
			OutputBytes: sj.OutputBytes,
			Agg:         RestoreAggState(sj.Agg),
		})
	}
	return p, nil
}

func parsePhase(s string) graph.Phase {
	switch s {
	case "input":
		return graph.InputPhase
	case "backward":
		return graph.BackwardPhase
	case "update":
		return graph.UpdatePhase
	default:
		return graph.ForwardPhase
	}
}

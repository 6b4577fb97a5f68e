package trace

import (
	"encoding/json"
	"io"
)

// seriesJSON is the exported form of one per-node measurement series.
type seriesJSON struct {
	Node        int       `json:"node"`
	Op          string    `json:"op"`
	Class       string    `json:"class"`
	Phase       string    `json:"phase"`
	Features    []float64 `json:"features"`
	InputBytes  int64     `json:"input_bytes"`
	OutputBytes int64     `json:"output_bytes"`
	N           int       `json:"n"`
	MeanSeconds float64   `json:"mean_s"`
	StdSeconds  float64   `json:"std_s"`
	MinSeconds  float64   `json:"min_s"`
	MaxSeconds  float64   `json:"max_s"`
	// Samples carries the retained raw measurements, so analysis
	// outside this repository can use the median estimators.
	Samples []float64 `json:"samples,omitempty"`
}

// profileJSON is the exported form of a Profile.
type profileJSON struct {
	CNN          string       `json:"cnn"`
	GPU          string       `json:"gpu"`
	Family       string       `json:"family"`
	Iterations   int          `json:"iterations"`
	Params       int64        `json:"params"`
	BatchSize    int64        `json:"batch_size"`
	MeanIterSecs float64      `json:"mean_iteration_s"`
	Series       []seriesJSON `json:"series"`
}

// ExportJSON writes the profile in a stable machine-readable form, for
// downstream analysis outside this repository (the equivalent of
// exporting a TensorFlow timeline).
func (p *Profile) ExportJSON(w io.Writer) error {
	out := profileJSON{
		CNN:          p.CNN,
		GPU:          p.GPU.String(),
		Family:       p.GPU.Family(),
		Iterations:   p.Iterations,
		Params:       p.Params,
		BatchSize:    p.BatchSize,
		MeanIterSecs: p.MeanIterSeconds(),
	}
	for _, s := range p.Series {
		out.Series = append(out.Series, seriesJSON{
			Node:        int(s.Node),
			Op:          string(s.OpType),
			Class:       s.Class.String(),
			Phase:       s.Phase.String(),
			Features:    s.Features,
			InputBytes:  s.InputBytes,
			OutputBytes: s.OutputBytes,
			N:           s.Agg.N(),
			MeanSeconds: s.Agg.Mean(),
			StdSeconds:  s.Agg.Std(),
			MinSeconds:  s.Agg.Min(),
			MaxSeconds:  s.Agg.Max(),
			Samples:     s.Agg.Retained(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

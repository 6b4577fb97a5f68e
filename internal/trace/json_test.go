package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"ceer/internal/gpu"
)

func TestProfileExportJSON(t *testing.T) {
	p := mkProfile("mynet", gpu.T4)
	var buf bytes.Buffer
	if err := p.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		CNN        string `json:"cnn"`
		Family     string `json:"family"`
		Iterations int    `json:"iterations"`
		Series     []struct {
			Op    string  `json:"op"`
			Class string  `json:"class"`
			N     int     `json:"n"`
			Mean  float64 `json:"mean_s"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.CNN != "mynet" || back.Family != "G4" || back.Iterations != 4 {
		t.Errorf("header fields wrong: %+v", back)
	}
	if len(back.Series) != len(p.Series) {
		t.Fatalf("series count %d, want %d", len(back.Series), len(p.Series))
	}
	if back.Series[0].Op != "Conv2D" || back.Series[0].Class != "heavy-gpu" {
		t.Errorf("first series = %+v", back.Series[0])
	}
	if back.Series[0].N != 4 || !eqExact(back.Series[0].Mean, 0.010) {
		t.Errorf("series stats wrong: %+v", back.Series[0])
	}
}

// TestProfileJSONRoundtrip: decoding the export back into its own form
// loses nothing — the header and, for every series, its type, class,
// phase, statistics and retained samples come back exactly.
func TestProfileJSONRoundtrip(t *testing.T) {
	orig := mkProfile("roundtrip-net", gpu.K80)
	var buf bytes.Buffer
	if err := orig.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back profileJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.CNN != orig.CNN || back.GPU != orig.GPU.String() || back.Family != orig.GPU.Family() ||
		back.Iterations != orig.Iterations || !eqExact(back.MeanIterSecs, orig.MeanIterSeconds()) {
		t.Errorf("metadata changed: %+v", back)
	}
	if len(back.Series) != len(orig.Series) {
		t.Fatalf("series count %d, want %d", len(back.Series), len(orig.Series))
	}
	for i, s := range back.Series {
		o := orig.Series[i]
		if s.Op != string(o.OpType) || s.Class != o.Class.String() || parsePhase(s.Phase) != o.Phase {
			t.Errorf("series %d: op/class/phase %s/%s/%s, want %s/%s/%s",
				i, s.Op, s.Class, s.Phase, o.OpType, o.Class, o.Phase)
		}
		if s.N != o.Agg.N() || !eqExact(s.MeanSeconds, o.Agg.Mean()) || !eqExact(s.StdSeconds, o.Agg.Std()) ||
			!eqExact(s.MinSeconds, o.Agg.Min()) || !eqExact(s.MaxSeconds, o.Agg.Max()) {
			t.Errorf("series %d stats changed: %+v", i, s)
		}
		if len(s.Samples) != len(o.Agg.Retained()) {
			t.Fatalf("series %d: %d samples, want %d", i, len(s.Samples), len(o.Agg.Retained()))
		}
		for j, v := range s.Samples {
			if !eqExact(v, o.Agg.Retained()[j]) {
				t.Errorf("series %d sample %d = %v, want %v", i, j, v, o.Agg.Retained()[j])
			}
		}
	}
}

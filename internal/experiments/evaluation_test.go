package experiments

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/gpu"
)

// TestCostMinNotesSorted renders a cost-minimization result with
// several named alternatives many times: map iteration order changes
// from run to run, so the ratio footnotes must come out identical and
// sorted by name every time.
func TestCostMinNotesSorted(t *testing.T) {
	r := &CostMinResult{
		CNN:           "inception-v3",
		Pricing:       cloud.OnDemand,
		BestPredicted: cloud.Config{GPU: gpu.T4, K: 1},
		BestObserved:  cloud.Config{GPU: gpu.T4, K: 1},
		RatioVs: map[string]float64{
			"most powerful instance (4xP3)": 3.2,
			"cheapest instance (1xG3)":      1.4,
			"on-demand optimum (1xG4)":      1.0,
			"two K80s (2xP2)":               2.5,
			"a single V100 (1xP3)":          1.9,
		},
	}
	var ratioNotes []string
	for _, note := range r.Table().Notes {
		if strings.Contains(note, "Ceer's pick") {
			ratioNotes = append(ratioNotes, note)
		}
	}
	if len(ratioNotes) != len(r.RatioVs) {
		t.Fatalf("got %d ratio notes, want %d: %q", len(ratioNotes), len(r.RatioVs), ratioNotes)
	}
	if !sort.StringsAreSorted(ratioNotes) {
		t.Errorf("ratio notes not sorted by name: %q", ratioNotes)
	}
	first := r.Table().Notes
	for i := 0; i < 200; i++ {
		if got := r.Table().Notes; !reflect.DeepEqual(got, first) {
			t.Fatalf("render %d: notes %q, first render %q", i, got, first)
		}
	}
}

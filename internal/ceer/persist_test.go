package ceer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/drift"
	"ceer/internal/gpu"
	"ceer/internal/zoo"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	p, _ := predictor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Classification identical.
	if len(loaded.Class.Heavy) != len(p.Class.Heavy) {
		t.Errorf("heavy set size %d != %d", len(loaded.Class.Heavy), len(p.Class.Heavy))
	}
	if !eqExact(loaded.LightMedian, p.LightMedian) || !eqExact(loaded.CPUMedian, p.CPUMedian) {
		t.Error("medians changed across roundtrip")
	}

	// Predictions identical for a test CNN across configurations.
	g := zoo.MustBuild("inception-v3", 32)
	pc, lc := compileFor(t, p, g), compileFor(t, loaded, g)
	for _, m := range gpu.All() {
		for _, k := range []int{1, 2, 4} {
			cfg := cloud.Config{GPU: m, K: k}
			a, err := pc.PredictTraining(g, cfg, dataset.ImageNet, cloud.OnDemand)
			if err != nil {
				t.Fatal(err)
			}
			b, err := lc.PredictTraining(g, cfg, dataset.ImageNet, cloud.OnDemand)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a.TotalSeconds-b.TotalSeconds) > 1e-9*a.TotalSeconds {
				t.Errorf("%s: prediction changed: %v vs %v", cfg, a.TotalSeconds, b.TotalSeconds)
			}
			if !eqExact(a.CostUSD, b.CostUSD) {
				t.Errorf("%s: cost changed", cfg)
			}
		}
	}

	// A reloaded predictor can also drive the recommender.
	rec, err := lc.Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Cfg.GPU != gpu.T4 || rec.Best.Cfg.K != 1 {
		t.Errorf("reloaded recommendation = %s, want 1xG4", rec.Best.Cfg)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "{nope",
		"wrong version": `{"version": 99}`,
		"old version":   `{"version": 1, "light_median": 1e-6, "cpu_median": 1e-5}`,
		"bad medians":   `{"version": 2, "light_median": 0, "cpu_median": 1}`,
		"unknown device": `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"op_models": [{"gpu": "no-such-device", "op": "Conv2D", "model": {"degree":1,"num_features":1,"coef":[0,1],"r2":1,"n":2,"scale":[1]}}]}`,
		"missing model": `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"op_models": [{"gpu": "v100", "op": "Conv2D"}]}`,
		"bad comm": `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"comm_models": [{"gpu": "v100", "k": 0, "model": {"degree":1,"num_features":1,"coef":[0,1],"r2":1,"n":2,"scale":[1]}}]}`,
		"comm unknown device": `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"comm_models": [{"gpu": "no-such-device", "k": 1, "model": {"degree":1,"num_features":1,"coef":[0,1],"r2":1,"n":2,"scale":[1]}}]}`,
	}
	for name, payload := range cases {
		if _, err := Load(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: Load should fail", name)
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	p, _ := predictor(t)
	var a, b bytes.Buffer
	if err := p.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Save output should be deterministic")
	}
	if !strings.Contains(a.String(), "Conv2DBackpropFilter") {
		t.Error("serialized predictor should contain op models")
	}
}

// TestSaveLoadSurvivesRegistryReorder proves persisted models are keyed
// by stable device IDs, not registry positions: loading (and re-saving)
// under a permuted device registration order reproduces the predictor
// exactly.
func TestSaveLoadSurvivesRegistryReorder(t *testing.T) {
	p, _ := predictor(t)
	var orig bytes.Buffer
	if err := p.Save(&orig); err != nil {
		t.Fatal(err)
	}
	// Loading drops the rejected regression candidates, so the reorder
	// comparison is against a predictor loaded under the original order.
	want, err := Load(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	before := gpu.All()
	rev := make([]gpu.ID, len(before))
	for i, id := range before {
		rev[len(before)-1-i] = id
	}
	if err := gpu.ReorderForTest(rev...); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := gpu.ReorderForTest(before...); err != nil {
			t.Fatal(err)
		}
	}()

	loaded, err := Load(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.opModels, want.opModels) {
		t.Error("op models differ after reorder round-trip")
	}
	if !reflect.DeepEqual(loaded.commModels, want.commModels) {
		t.Error("comm models differ after reorder round-trip")
	}
	if !reflect.DeepEqual(loaded.Class, want.Class) {
		t.Error("classification differs after reorder round-trip")
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != orig.String() {
		t.Error("re-serialized predictor is not byte-identical under reordered registry")
	}
}

// TestLoadPersistError pins the typed error contract: every load
// failure is a *PersistError carrying the declared file version (0 when
// decoding never reached it) and, for file loads, the source path.
func TestLoadPersistError(t *testing.T) {
	cases := []struct {
		name        string
		payload     string
		wantVersion int
	}{
		{"truncated JSON", `{"version": 2, "light_median": 1e-`, 0},
		{"empty input", ``, 0},
		{"binary garbage", "\x00\x01\x02predictor", 0},
		{"stale version", `{"version": 1, "light_median": 1e-6, "cpu_median": 1e-5}`, 1},
		{"future version", `{"version": 99}`, 99},
		{"corrupt medians", `{"version": 2, "light_median": 0, "cpu_median": 1}`, 2},
		{"unregistered device", `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"op_models": [{"gpu": "no-such-device", "op": "Conv2D", "model": {"degree":1,"num_features":1,"coef":[0,1],"r2":1,"n":2,"scale":[1]}}]}`, 2},
		{"degraded without reason", `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"degraded": [{"gpu": "v100", "reason": ""}]}`, 2},
		{"degraded unknown device", `{"version": 2, "light_median": 1e-6, "cpu_median": 1e-5,
			"degraded": [{"gpu": "no-such-device", "reason": "x"}]}`, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(c.payload))
			if err == nil {
				t.Fatal("Load should fail")
			}
			var pe *PersistError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %T (%v), want *PersistError", err, err)
			}
			if pe.Version != c.wantVersion {
				t.Errorf("version = %d, want %d", pe.Version, c.wantVersion)
			}
			if pe.Path != "" {
				t.Errorf("stream load should carry no path, got %q", pe.Path)
			}
		})
	}
}

// TestLoadChecksShapesBeforeAllocating: a small file that declares a
// huge degree-2 shape, in a stats block (120 features: a 7381-square
// XᵀX) or a model block (3000 features), is a *PersistError, and Load
// allocates no more than the bytes it was given warrant.
func TestLoadChecksShapesBeforeAllocating(t *testing.T) {
	ones := func(n int) string { return strings.TrimSuffix(strings.Repeat("1,", n), ",") }
	cases := map[string]string{
		"stats": `{"version": 3, "light_median": 1e-6, "cpu_median": 1e-5, "op_models": [{"gpu": "v100", "op": "Conv2D",
			"model": {"degree":1,"num_features":1,"coef":[0,1],"r2":1,"n":2,"scale":[1]},
			"stats": {"degree":2,"num_features":120,"scale":[` + ones(120) + `],"n":0,"xtx":[0],"xty":[0],"sum_y":0,"sum_y2":0}}]}`,
		"model": `{"version": 3, "light_median": 1e-6, "cpu_median": 1e-5, "op_models": [{"gpu": "v100", "op": "Conv2D",
			"model": {"degree":2,"num_features":3000,"coef":[0,1],"r2":1,"n":2,"scale":[` + ones(3000) + `]}}]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(strings.NewReader(doc))
			runtime.ReadMemStats(&after)
			var pe *PersistError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %T (%v), want *PersistError", err, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("rejecting a %d-byte file allocated %d bytes, want < 1 MB", len(doc), alloc)
			}
		})
	}
}

// TestLoadFilePersistError checks that file-based loads carry the path
// in the typed error, for both open failures and corrupt contents.
func TestLoadFilePersistError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.json")
	_, err := LoadFile(missing)
	var pe *PersistError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *PersistError", err, err)
	}
	if pe.Path != missing {
		t.Errorf("path = %q, want %q", pe.Path, missing)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("open failure should unwrap to os.ErrNotExist, got %v", err)
	}

	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(corrupt)
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *PersistError", err, err)
	}
	if pe.Path != corrupt || pe.Version != 99 {
		t.Errorf("got path=%q version=%d, want path=%q version=99", pe.Path, pe.Version, corrupt)
	}
	if !strings.Contains(err.Error(), corrupt) {
		t.Errorf("message %q should name the file", err.Error())
	}
}

// TestLoadVersionTable pins the version gate: every unsupported
// version is rejected with a message naming the supported list, and
// every supported version decodes.
func TestLoadVersionTable(t *testing.T) {
	minimal := func(v int) string {
		return fmt.Sprintf(`{"version": %d, "light_median": 1e-6, "cpu_median": 1e-5}`, v)
	}
	for _, v := range []int{1, 4, 99} {
		t.Run(fmt.Sprintf("unsupported-v%d", v), func(t *testing.T) {
			_, err := Load(strings.NewReader(minimal(v)))
			if err == nil {
				t.Fatalf("version %d should be rejected", v)
			}
			for _, want := range []string{
				fmt.Sprintf("unsupported predictor version %d", v),
				"supported: 2, 3",
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err.Error(), want)
				}
			}
			var pe *PersistError
			if !errors.As(err, &pe) || pe.Version != v {
				t.Errorf("err = %T version %d, want *PersistError carrying %d", err, pe.Version, v)
			}
		})
	}
	for _, v := range supportedVersions {
		t.Run(fmt.Sprintf("supported-v%d", v), func(t *testing.T) {
			if _, err := Load(strings.NewReader(minimal(v))); err != nil {
				t.Errorf("version %d should load: %v", v, err)
			}
		})
	}
}

// TestV2UpgradeRoundTrip is the forward-compatibility journey: a v2
// file (the pre-statistics golden) loads under the v3 code with empty
// statistics, predicts identically to the v3 golden, and re-saves as a
// v3 container without inventing statistics.
func TestV2UpgradeRoundTrip(t *testing.T) {
	v2, err := LoadFile(filepath.Join("testdata", "predictor_seed1_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := LoadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, om := range v2.OpModels() {
		if om.Stats != nil {
			t.Fatalf("v2 load invented statistics for %s/%s", om.GPU, om.OpType)
		}
	}
	withStats := 0
	for _, om := range v3.OpModels() {
		if om.Stats != nil {
			withStats++
		}
	}
	if withStats == 0 {
		t.Fatal("v3 load restored no statistics")
	}

	// Same campaign, same coefficients: the upgrade is prediction-invisible.
	g := zoo.MustBuild("inception-v3", 32)
	v2c, v3c := compileFor(t, v2, g), compileFor(t, v3, g)
	for _, m := range gpu.All() {
		a, err := v2c.PredictIteration(g, m, 2, Full)
		if err != nil {
			t.Fatal(err)
		}
		b, err := v3c.PredictIteration(g, m, 2, Full)
		if err != nil {
			t.Fatal(err)
		}
		if !eqExact(a.PerIterSeconds, b.PerIterSeconds) {
			t.Errorf("%s: v2 predicts %v, v3 predicts %v", m, a.PerIterSeconds, b.PerIterSeconds)
		}
	}

	// Re-saving writes the current container version; absent statistics
	// stay absent (omitempty, never fabricated).
	var up bytes.Buffer
	if err := v2.Save(&up); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(up.String(), `"version": 3`) {
		t.Error("re-saved v2 predictor should carry version 3")
	}
	if strings.Contains(up.String(), `"stats"`) {
		t.Error("upgrading a v2 file must not fabricate statistics")
	}
	back, err := Load(bytes.NewReader(up.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	backc := compileFor(t, back, g)
	for _, m := range gpu.All() {
		a, err := v2c.PredictIteration(g, m, 1, Full)
		if err != nil {
			t.Fatal(err)
		}
		b, err := backc.PredictIteration(g, m, 1, Full)
		if err != nil {
			t.Fatal(err)
		}
		if !eqExact(a.PerIterSeconds, b.PerIterSeconds) {
			t.Errorf("%s: upgraded round-trip changed prediction: %v vs %v", m, a.PerIterSeconds, b.PerIterSeconds)
		}
	}
	// The upgraded container is itself byte-stable.
	var again bytes.Buffer
	if err := back.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(up.Bytes(), again.Bytes()) {
		t.Error("upgraded container is not byte-stable across a save/load cycle")
	}
}

// calibrateFixture loads a model file and replays the committed
// calibration fixture through it with drift-triggered refits only,
// over a window small enough that the fixture refits often. It returns
// the report, its rendering and the recalibrated file's bytes.
func calibrateFixture(t *testing.T, models []byte) (CalibrationReport, []byte, []byte) {
	t.Helper()
	pred, err := Load(bytes.NewReader(models))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := os.ReadFile(filepath.Join("testdata", "calib_obs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultCalibrationPolicy()
	pol.Drift = drift.Policy{Window: 4, MAPEThreshold: 0.01, SignRun: 2}
	cal, err := NewCalibrator(pred, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Replay(bytes.NewReader(obs), nil); err != nil {
		t.Fatal(err)
	}
	rep := cal.Report()
	var text bytes.Buffer
	if err := rep.Render(&text); err != nil {
		t.Fatal(err)
	}
	return rep, text.Bytes(), savedBytes(t, cal.Predictor())
}

// TestCalibratedStatsHoldOnlyNormalEquations: after drift-triggered
// refits, every saved stats object holds the normal equations and
// nothing else. The residual window that judged the drift is the
// calibrator's, and no load would read it.
func TestCalibratedStatsHoldOnlyNormalEquations(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, saved := calibrateFixture(t, golden)
	if rep.Refits == 0 {
		t.Fatal("the fixture should trigger drift refits")
	}
	var file struct {
		OpModels []struct {
			Stats map[string]json.RawMessage `json:"stats"`
		} `json:"op_models"`
	}
	if err := json.Unmarshal(saved, &file); err != nil {
		t.Fatal(err)
	}
	want := []string{"degree", "n", "num_features", "scale", "sum_y", "sum_y2", "xtx", "xty"}
	for i, om := range file.OpModels {
		keys := make([]string, 0, len(om.Stats))
		for k := range om.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("op model %d: stats members %v, want %v", i, keys, want)
		}
	}
}

// TestLoadIgnoresLegacyResidualWindow: calibrated v3 files written
// while the accumulator kept the drift window carry res_cap, residuals
// and res_total in every stats object it refit. Such a file loads, and
// calibrating from it gives the report and the file bytes that
// calibrating from the same file without those members gives.
func TestLoadIgnoresLegacyResidualWindow(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, stripped := calibrateFixture(t, golden)
	legacy := regexp.MustCompile(`("sum_y2": [^\n]+)\n`).ReplaceAll(stripped,
		[]byte(`${1},"res_cap": 4,"residuals": [0.5, -0.25],"res_total": 7`+"\n"))
	if n := bytes.Count(legacy, []byte(`"res_cap"`)); n == 0 || n != bytes.Count(stripped, []byte(`"sum_y2"`)) {
		t.Fatalf("legacy members added to %d stats objects, want every one", n)
	}
	_, wantText, wantSaved := calibrateFixture(t, stripped)
	_, gotText, gotSaved := calibrateFixture(t, legacy)
	if !bytes.Equal(gotText, wantText) {
		t.Errorf("report from the legacy file differs:\n--- legacy ---\n%s--- stripped ---\n%s", gotText, wantText)
	}
	if !bytes.Equal(gotSaved, wantSaved) {
		t.Error("recalibrated file from the legacy file differs from the stripped file's")
	}
}

// TestSaveLoadDegradedRoundtrip proves degraded-device annotations
// survive persistence and that their presence is the only difference
// from a clean predictor's serialization.
func TestSaveLoadDegradedRoundtrip(t *testing.T) {
	p, _ := predictor(t)
	var clean bytes.Buffer
	if err := p.Save(&clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), `"degraded"`) {
		t.Fatal("fully-covered predictor must not serialize a degraded field")
	}

	marked, err := Load(bytes.NewReader(clean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	marked.setDegraded(gpu.M60, "2 campaign cells missing")
	var dirty bytes.Buffer
	if err := marked.Save(&dirty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dirty.String(), `"degraded"`) {
		t.Fatal("degraded predictor must serialize the annotation")
	}
	back, err := Load(bytes.NewReader(dirty.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	reason, ok := back.Degraded(gpu.M60)
	if !ok || reason != "2 campaign cells missing" {
		t.Errorf("degraded annotation lost: %q, %v", reason, ok)
	}
	if got := back.DegradedDevices(); len(got) != 1 || got[0] != gpu.M60 {
		t.Errorf("DegradedDevices = %v, want [m60]", got)
	}
}

// FuzzLoad: the predictor loader never panics, every failure is a
// *PersistError, and an accepted file is a fixed point of the format:
// Save, then Load, then Save again reproduces the first Save's bytes.
// The seeds are both committed predictors (v3 and v2, read here) plus
// the small corrupt files under testdata/fuzz/FuzzLoad, which also run
// in the plain test step.
func FuzzLoad(f *testing.F) {
	for _, name := range []string{"predictor_seed1_golden.json", "predictor_seed1_v2.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := Load(bytes.NewReader(in))
		if err != nil {
			var pe *PersistError
			if !errors.As(err, &pe) {
				t.Fatalf("Load error %v is a %T, want *PersistError", err, err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := p.Save(&first); err != nil {
			t.Fatalf("saving an accepted predictor: %v", err)
		}
		q, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved predictor: %v\n%s", err, first.Bytes())
		}
		if err := q.Save(&second); err != nil {
			t.Fatalf("re-saving a reloaded predictor: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

package main

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ceer"
	"ceer/internal/serve"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		in     string
		family string
		k      int
		ok     bool
	}{
		{"2xP3", "P3", 2, true},
		{"P3", "P3", 1, true},
		{"4xg4", "G4", 4, true}, // case-insensitive family
		{"8xP2", "P2", 8, true},
		{"1xG3", "G3", 1, true},
		{"5xP3", "", 0, false}, // beyond p3.8xlarge
		{"zxP3", "", 0, false}, // bad count
		{"2xZZ", "", 0, false}, // bad family
		{"", "", 0, false},
	}
	for _, c := range cases {
		cfg, err := parseConfig(c.in)
		if c.ok {
			if err != nil {
				t.Errorf("parseConfig(%q) failed: %v", c.in, err)
				continue
			}
			if cfg.GPU.Family() != c.family || cfg.K != c.k {
				t.Errorf("parseConfig(%q) = %s, want %dx%s", c.in, cfg, c.k, c.family)
			}
		} else if err == nil {
			t.Errorf("parseConfig(%q) should fail", c.in)
		}
	}
}

func TestLoadOrTrainMissingFile(t *testing.T) {
	res := addResilienceFlags(flag.NewFlagSet("test", flag.ContinueOnError))
	if _, err := loadOrTrain(context.Background(), "/nonexistent/models.json", res, 1, 1); err == nil {
		t.Error("missing models file should error")
	}
}

// quietStdout redirects os.Stdout to /dev/null for the duration of the
// test, keeping table and JSON output out of the test logs.
func quietStdout(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = orig
		_ = devnull.Close() // test cleanup; the close error is irrelevant
	})
}

func TestCmdZoo(t *testing.T) {
	quietStdout(t)
	if err := cmdZoo(); err != nil {
		t.Fatal(err)
	}
}

// TestPredictExplainDegraded: `ceer predict -explain` over a sweep
// explains every row the table prints, the degraded G3 rows without
// their missing comm term and marked † with the reason.
func TestPredictExplainDegraded(t *testing.T) {
	path := degradedModels(t)
	out := captureStdout(t, func() error {
		return cmdPredict([]string{"-models", path, "-model", "resnet-50", "-explain"})
	})
	if got, want := bytes.Count(out, []byte("Attribution: resnet-50 on ")), len(ceer.AllConfigs(4)); got != want {
		t.Errorf("printed %d attributions, want %d:\n%s", got, want, out)
	}
	for _, wantLine := range []string{"Attribution: resnet-50 on 1xG3 †", "† Tesla M60 trained on partial coverage:"} {
		if !bytes.Contains(out, []byte(wantLine)) {
			t.Errorf("explanations lack %q:\n%s", wantLine, out)
		}
	}
	if bytes.Contains(out, []byte("on 1xP3 †")) {
		t.Errorf("a clean device's attribution is marked degraded:\n%s", out)
	}
}

func TestRenderExplanationSmoke(t *testing.T) {
	quietStdout(t)
	sys, err := ceer.Train(ceer.TrainOptions{Seed: 4, ProfileIterations: 20, CommIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ceer.BuildModelCached("alexnet", 8)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := sys.Compiled(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ceer.Config("P3", 1) // known-valid config; the error path has its own test
	if err := renderExplanation(comp, g, cfg); err != nil {
		t.Fatal(err)
	}
	if err := renderNodeExplanation(comp, g, cfg.GPU, 5); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = out
	ferr := f()
	os.Stdout = orig
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// degradedModels trains a predictor whose G3 device lost every campaign
// cell (and so its comm models) and saves it, returning the file.
func degradedModels(t *testing.T) string {
	t.Helper()
	sys, err := ceer.Train(ceer.TrainOptions{
		Seed: 4, ProfileIterations: 20, CommIterations: 5,
		Faults: &ceer.FaultSpec{Seed: 5, PermanentDevices: []string{"m60"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "models.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPredictDegradedSweep: on a predictor whose G3 device lost every
// campaign cell (and so its comm models), `ceer predict` sweeps answer
// instead of failing: -json prints the daemon's bytes, and the table
// marks the G3 rows † with recommend's footnote.
func TestPredictDegradedSweep(t *testing.T) {
	path := degradedModels(t)
	loaded, err := ceer.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(loaded, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, want := srv.DoLocal(http.MethodGet, "/v1/predict", "model=alexnet")
	if status != http.StatusOK || !bytes.Contains(want, []byte(`"degraded":`)) {
		t.Fatalf("daemon sweep: status %d, want 200 with degraded entries: %s", status, want)
	}
	got := captureStdout(t, func() error {
		return cmdPredict([]string{"-models", path, "-model", "alexnet", "-json"})
	})
	if !bytes.Equal(got, want) {
		t.Errorf("ceer predict -json diverges from the daemon\n got: %s\nwant: %s", got, want)
	}
	table := captureStdout(t, func() error {
		return cmdPredict([]string{"-models", path, "-model", "alexnet"})
	})
	for _, wantLine := range []string{"1xG3 †", "4xG3 †", "† Tesla M60 trained on partial coverage:"} {
		if !bytes.Contains(table, []byte(wantLine)) {
			t.Errorf("predict table lacks %q:\n%s", wantLine, table)
		}
	}
	if bytes.Contains(table, []byte("P3 †")) {
		t.Errorf("predict table marks a clean device degraded:\n%s", table)
	}
}

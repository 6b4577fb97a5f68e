package lint_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceer/internal/lint"
	"ceer/internal/lint/linttest"
)

// Each analyzer has a self-contained module under testdata with one
// true-positive fixture (every expected finding marked by a
// `// want "regexp"` comment) and one clean fixture that must stay
// silent. linttest.Run fails on any mismatch in either direction.

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "ctxflow"), lint.AnalyzerCtxFlow)
}

func TestDeviceGeneric(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "devicegeneric"), lint.AnalyzerDeviceGeneric)
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "determinism"), lint.AnalyzerDeterminism)
}

func TestErrDrop(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "errdrop"), lint.AnalyzerErrDrop)
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "floatcmp"), lint.AnalyzerFloatCmp)
}

// TestHotPath runs the hot-path proof over the lock, map and append
// fixtures of testdata/hotpath: each rule fires inside a //hot:path
// root, and the sanctioned daemon shapes stay silent.
func TestHotPath(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "hotpath"), lint.AnalyzerAllocFree)
}

// TestJSONGolden pins the -json encoding byte for byte: ordering is
// (file, line, col, analyzer, message) and the encoder is shared with
// cmd/ceer-lint, so a drift here is a drift in the CLI's contract.
func TestJSONGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	diags, err := lint.Run(lint.Config{Dir: dir}, lint.Analyzers)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("golden tree produced no diagnostics; the fixture is broken")
	}
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "want.json"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("JSON output drifted from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONEmpty pins the no-findings encoding: an empty array, never
// null, so downstream jq pipelines don't need a guard.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("WriteJSON(nil) = %q, want %q", got, "[]\n")
	}
}

// TestByName covers analyzer selection for the CLI's -analyzers flag.
func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != len(lint.Analyzers) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := lint.ByName("errdrop, floatcmp")
	if err != nil || len(two) != 2 || two[0].Name != "errdrop" || two[1].Name != "floatcmp" {
		t.Fatalf("ByName(errdrop, floatcmp) = %v, err %v", two, err)
	}
	if _, err := lint.ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not fail")
	}
}

func TestAllocFree(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "allocfree"), lint.AnalyzerAllocFree)
}

func TestAtomics(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "atomics"), lint.AnalyzerAtomics)
}

func TestPoolPair(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "poolpair"), lint.AnalyzerPoolPair)
}

// TestSARIFGolden pins the -sarif encoding byte for byte, like
// TestJSONGolden does for -json; the two modes share diagnostics and
// ordering, so only the envelope differs.
func TestSARIFGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	diags, err := lint.Run(lint.Config{Dir: dir}, lint.Analyzers)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("golden tree produced no diagnostics; the fixture is broken")
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "want.sarif"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("SARIF output drifted from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrossCheckEscapes feeds a hand-written -gcflags=-m log into the
// escape cross-check: a hit inside a hot-reachable helper must
// surface, hits inside an exempt boundary, an unreachable function,
// or under a lint:ignore must not. Line numbers are recovered from
// the fixture source so edits don't silently rot the log.
func TestCrossCheckEscapes(t *testing.T) {
	dir := filepath.Join("testdata", "escape")
	src, err := os.ReadFile(filepath.Join(dir, "hot", "hot.go"))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	// The four &node{...} returns appear in a fixed order: alloc,
	// Exempted, Cold, ignored.
	var lines []int
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "&node{v:") {
			lines = append(lines, i+1)
		}
	}
	if len(lines) != 4 {
		t.Fatalf("fixture has %d &node returns, want 4", len(lines))
	}
	log := fmt.Sprintf(`# example.com/escape/hot
hot/hot.go:16:13: leaking param: n
hot/hot.go:%d:9: &node{...} escapes to heap
hot/hot.go:%d:9: &node{...} escapes to heap
hot/hot.go:%d:9: &node{...} escapes to heap
hot/hot.go:%d:9: &node{...} escapes to heap
not a diagnostic line
`, lines[0], lines[1], lines[2], lines[3])
	diags, err := lint.CrossCheckEscapes(lint.Config{Dir: dir}, strings.NewReader(log))
	if err != nil {
		t.Fatalf("CrossCheckEscapes: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "allocfree" || d.File != "hot/hot.go" || d.Line != lines[0] {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	if !strings.Contains(d.Message, "compiler escape analysis") || !strings.Contains(d.Message, "alloc") {
		t.Errorf("unexpected message: %s", d.Message)
	}
}

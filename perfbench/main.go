// Command perfbench is the repository benchmark. It runs one named
// workload against the tree it was built from and prints every metric
// by name with its unit, then one JSON result line:
//
//	perfbench --workload train|serve-read|serve-calibrate --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, whose spans are also
// written to the work directory. See README.md for what each workload
// exercises and how to read a traced run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workDir holds what run.sh builds (the ceer binary from the tree under
// test), each run's scratch directory and the span traces.
const (
	workDir = ".bench_build"
	ceerBin = workDir + "/ceer"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tmp      string // this run's scratch directory under workDir
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

var workloads = map[string]func(context.Context, config, *result) error{
	"train":           runTrain,
	"serve-read":      runServeRead,
	"serve-calibrate": runServeCalibrate,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceN int
	fs.StringVar(&cfg.workload, "workload", "", "train, serve-read or serve-calibrate")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measuring time of the run")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceN == 1
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (train, serve-read, serve-calibrate) and --seconds >= 1\n")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(tmp) }() // a leftover scratch directory only takes space
	cfg.tmp = tmp

	res := newResult()
	if cfg.trace {
		res.tr = newTracer()
	}
	if err := wl(context.Background(), cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := res.tr.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.note("spans written to %s", path)
	}
	return res.print(stamp(cfg))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's outcome: operation counts, failed checks,
// the two metric sets and the human-readable report.
type result struct {
	tr        *tracer
	attempted int
	failed    int
	problems  []string
	e2e       map[string]metric
	layers    map[string]metric
	lines     []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// op counts one attempted operation and whether it succeeded.
func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check counts one correctness check; a failed one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	r.op(ok)
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// timing reports a distribution by the percentile rule.
func (r *result) timing(name, unit string, s summary) {
	if s.TailQ == 0 {
		r.note("%-28s p50 %-12.6g (no tail: n too small)  n=%d  %s", name, s.P50, s.N, unit)
		return
	}
	r.note("%-28s p50 %-12.6g %-6s %-12.6g n=%d  %s", name, s.P50, tailName(s.TailQ), s.Tail, s.N, unit)
}

func (r *result) value(name, unit string, v float64, n int) {
	r.note("%-28s %-12.6g n=%d  %s", name, v, n, unit)
}

func (r *result) setE2E(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }

func (r *result) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// print writes the report and the JSON result line to stdout. It
// returns the exit status: non-zero when a correctness check or an
// operation failed, so a wrong answer never passes as a result.
func (r *result) print(env envStamp) int {
	envJSON, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "env %s\n", envJSON)
	for _, l := range r.lines {
		fmt.Fprintln(&b, l)
	}
	if r.tr != nil {
		names := make([]string, 0, len(r.layers))
		for n := range r.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "layer %-28s %-14.6g %s\n", n, r.layers[n].Value, r.layers[n].Unit)
		}
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "%-28s %-12.6g n=%d  fraction\n", "error_rate", errRate, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(&b, "FAILED CHECK:", p)
	}
	metrics := r.e2e
	if r.tr != nil {
		metrics = r.layers
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.Write(out)
	b.WriteByte('\n')
	if _, err := os.Stdout.Write(b.Bytes()); err != nil {
		return 1
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations or checks failed\n", r.failed, r.attempted)
		return 1
	}
	return 0
}

#!/usr/bin/env bash
# Tier-1+ verification gate (see README "Verification"): formatting,
# vet, build, the full test suite, vet and tests of the perfbench
# module, a race-detector pass over the whole module, short fuzz runs
# of the JSON encoder, the JSONL journal codec, the observation decoder,
# the fault-spec parser, the predictor loader and the query parser (each
# with its minimization bounded, see below), the ceer-lint
# static-analysis suite, the escape-analysis cross-check, the
# calibration golden gate, the chaos determinism gate, the experiments
# determinism gate, and a bench smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch outputs of the experiments and bench gates, removed however
# the script exits.
exp_out="$(mktemp -d)"
bench_predict_out="$(mktemp)"
bench_serve_out="$(mktemp)"
trap 'rm -rf "${exp_out}" "${bench_predict_out}" "${bench_serve_out}"' EXIT

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "${unformatted}" ]]; then
    echo "gofmt gate FAILED: files need gofmt -w:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== perfbench: go vet and go test"
# perfbench is its own module over this one (a replace directive), so
# ./... above does not build it. An API change that breaks the
# benchmark harness fails here rather than first in a benchmark run.
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== go test -race ./..."
go test -race ./...

# Every fuzz step bounds minimization: by default Go spends up to 60 s
# minimizing each new interesting input, which on a fresh fuzz cache
# (a new runner) swallows the whole 10 s and leaves it executing
# nothing. 100 executions per input keep the step exploring.
fuzzmin=(-fuzzminimizetime 100x)

echo "== fuzz: append JSON encoder vs encoding/json"
# Differential fuzzing of the daemon's float and string encoders
# against encoding/json (internal/serve/jsonenc_test.go), a fixed short
# time per target. The committed seed corpora under
# internal/serve/testdata/fuzz also run in the plain test step.
for target in FuzzAppendJSONFloat FuzzAppendJSONString; do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s "${fuzzmin[@]}" ./internal/serve >/dev/null
done

echo "== fuzz: JSONL journal codec replay"
# The one target for every reader on internal/jsonl (the campaign
# checkpoint, the observe journal, the observation log): any byte
# string fails naming a line or replays exactly its valid prefix, and
# an append then reopen reads that prefix plus the record. The seed
# corpus under internal/jsonl/testdata/fuzz is the shared corruption
# table.
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 10s "${fuzzmin[@]}" ./internal/jsonl >/dev/null

echo "== fuzz: observation decoder vs encoding/json"
# Differential fuzzing of trace.DecodeObs, whose canonical scan must
# agree with encoding/json plus Validate on any line: the same error
# text, or the same value with every float compared by bits. The seed
# corpus under internal/trace/testdata/fuzz also runs in the plain test
# step.
go test -run '^$' -fuzz '^FuzzDecodeObs$' -fuzztime 10s "${fuzzmin[@]}" ./internal/trace >/dev/null

echo "== fuzz: fault-spec parser"
# faults.ParseSpec, the parser behind -fault-spec: it never panics, and
# any input it accepts is one valid JSON value whose spec validates,
# builds an injector and re-encodes to a fixed point. The seed corpus
# under internal/faults/testdata/fuzz also runs in the plain test step.
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s "${fuzzmin[@]}" ./internal/faults >/dev/null

echo "== fuzz: predictor loader"
# ceer.Load, the reader of every model file (ceer serve, reload,
# calibrate): it never panics, every failure is a *PersistError, and an
# accepted file saves, reloads and saves again to the same bytes. Both
# committed predictors seed it; the corrupt seeds under
# internal/ceer/testdata/fuzz also run in the plain test step.
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s "${fuzzmin[@]}" ./internal/ceer >/dev/null

echo "== fuzz: query parser vs net/url"
# (*query).parse, the daemon's allocation-free query scanner: it never
# panics, on a query url.ParseQuery accepts it rejects any key outside
# its set, and when it accepts, so does url.ParseQuery and every field
# equals Values.Get of its key (floats by bits). The seed corpus under
# internal/serve/testdata/fuzz also runs in the plain test step.
go test -run '^$' -fuzz '^FuzzParseQuery$' -fuzztime 10s "${fuzzmin[@]}" ./internal/serve >/dev/null

echo "== ceer-lint"
# The AST/type-aware invariant suite (internal/lint): device
# genericity in core packages, determinism on the result path, error
# hygiene, float-comparison discipline, and the hot-path proof layer
# (allocfree, atomics, poolpair over the //hot:path call graph). Any
# diagnostic fails the gate; intentional exceptions carry
# //lint:ignore directives with a reason, in the source, where
# reviewers can see them.
go run ./cmd/ceer-lint

echo "== lint-escape cross-check"
# The compiler's escape analysis over the whole module replayed
# against the hot-path call graph: any "escapes to heap" inside a
# //hot:path-reachable function fails (scripts/lint-escape.sh;
# CEER_SKIP_ESCAPE=1 skips).
./scripts/lint-escape.sh >/dev/null

echo "== calibration golden gate"
# The observe→predict→calibrate replay over the committed observation
# fixture must render its drift/refit report byte-identically to
# internal/ceer/testdata/calib_report_golden.txt, and two replays of
# the same log must agree byte-for-byte. A refit updates only the table
# run it re-solved, so after every refit of that fixture and of a
# drifted campaign stream the published tables must deeply equal a full
# Compile of the recalibrated predictor (TestRefitTablesMatchCompile).
# Regenerate after intentional report changes with:
#   go test ./internal/ceer -run TestCalibrateGoldenReport -update-calib-golden
go test ./internal/ceer -count=1 \
    -run 'TestCalibrateGoldenReport|TestCalibrateDeterministicReplay|TestRefitTablesMatchCompile' >/dev/null

echo "== chaos determinism gate"
# Campaigns under the canned fault spec must be byte-reproducible at
# any worker count and leave no residue in the trained models
# (scripts/chaos.sh).
./scripts/chaos.sh >/dev/null

echo "== experiments determinism gate"
# The paper-figure report must be byte-identical serial and parallel:
# every table, row and footnote in the same order, and the serial run
# must equal the checked-in experiments_report.txt, so every reproduced
# number is pinned. Only stdout is compared; the timing line goes to
# stderr, shown if a run fails.
for workers in 1 2; do
    if ! go run ./cmd/ceer-experiments -workers "${workers}" \
        >"${exp_out}/w${workers}.txt" 2>"${exp_out}/w${workers}.err"; then
        cat "${exp_out}/w${workers}.err" >&2
        exit 1
    fi
done
if ! cmp "${exp_out}/w1.txt" "${exp_out}/w2.txt"; then
    echo "experiments determinism gate FAILED: -workers 1 and 2 reports differ" >&2
    exit 1
fi
if ! cmp "${exp_out}/w1.txt" experiments_report.txt; then
    echo "experiments determinism gate FAILED: the report differs from experiments_report.txt" >&2
    exit 1
fi

echo "== live-daemon chaos suite"
# A daemon built with -tags chaosserve under real faults: kill -9
# mid-calibration replays the write-ahead journal to a byte-identical
# predictor, torn journal tails are trimmed on boot, corrupt reloads
# under prediction load answer 422 with zero 5xx and an unchanged
# generation, and injected handler panics degrade then heal the daemon
# (scripts/chaos-serve.sh; CEER_SKIP_CHAOS_SERVE=1 skips).
if [[ "${CEER_SKIP_CHAOS_SERVE:-}" != "1" ]]; then
    ./scripts/chaos-serve.sh >/dev/null
fi

echo "== serving-path bench regression gate"
# A moderate-depth bench run written to a scratch file and gated on the
# median of 6 repetitions against the committed BENCH_predict.json:
# >20% ns/op or any allocs/op regression fails (see scripts/bench.sh).
# bench.sh's stdout, which holds the per-bench verdicts, goes to stderr
# with the raw bench lines, so a failing gate names its benchmark.
BENCH_COUNT=6 BENCH_TIME=500x BENCH_OUT="${bench_predict_out}" ./scripts/bench.sh >&2

echo "== serve daemon bench regression gate"
# The daemon's hot-path benches gated against the committed
# BENCH_serve.json: the two zero-alloc handler benches and the encoder.
# Load under concurrency is perfbench's to measure, against the live
# daemon. Any allocs/op above the committed baseline of 0 fails — the
# zero-allocation contract of DESIGN.md §13.
BENCH_COUNT=6 BENCH_TIME=500x BENCH_PKG=./internal/serve \
    BENCH_REGEX='ServePredict$|ServeRecommend$|ServeEncodePredict$' \
    BENCH_BASELINE=BENCH_serve.json BENCH_OUT="${bench_serve_out}" \
    ./scripts/bench.sh >&2

echo "== serve daemon smoke"
# Boots `ceer serve` on an ephemeral port, hits all five endpoints,
# byte-compares the daemon's /v1/predict body against `ceer predict
# -json`, hot-reloads, and drains (scripts/serve-smoke.sh).
./scripts/serve-smoke.sh >/dev/null

echo "check: OK"

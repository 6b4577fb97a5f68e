GO ?= go

.PHONY: build test bench bench-predict bench-serve serve-smoke race lint lint-escape chaos chaos-serve check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Serving-path benches only; writes BENCH_predict.json (see
# scripts/bench.sh for BENCH_COUNT/BENCH_TIME/BENCH_OUT overrides).
bench-predict:
	./scripts/bench.sh

# Serve-daemon benches: the zero-alloc handler paths and the encoder;
# regenerates BENCH_serve.json in place (the in-place run skips the
# gate — `make check` gates against the committed file). Latency and
# throughput under load come from perfbench against the live daemon
# (perfbench/run.sh).
bench-serve:
	BENCH_PKG=./internal/serve BENCH_REGEX=Serve \
	    BENCH_OUT=BENCH_serve.json BENCH_BASELINE=BENCH_serve.json \
	    ./scripts/bench.sh

# End-to-end daemon smoke: ephemeral port, all five endpoints, CLI
# byte-equivalence, hot reload, graceful drain (scripts/serve-smoke.sh).
serve-smoke:
	./scripts/serve-smoke.sh

# Race-detector pass over the packages exercising the parallel
# measurement campaign (internal/par is covered transitively and has
# its own -race-sensitive tests via `make check`).
race:
	$(GO) test -race ./internal/par ./internal/sim ./internal/ceer ./internal/experiments

# The ceer-lint static-analysis suite (internal/lint): device
# genericity, determinism, context threading, error hygiene, float
# comparisons, and the hot-path proofs (allocfree, atomics, poolpair).
lint:
	$(GO) run ./cmd/ceer-lint

# Compiler escape-analysis cross-check of the hot-path allocation
# proof: go build -gcflags=-m piped through ceer-lint -escape-log
# (scripts/lint-escape.sh; CEER_SKIP_ESCAPE=1 skips).
lint-escape:
	./scripts/lint-escape.sh

# Chaos gate: train twice under the canned fault spec
# (scripts/chaos-spec.json) at different worker counts and byte-diff
# the resulting model files (scripts/chaos.sh).
chaos:
	./scripts/chaos.sh

# Live-daemon chaos suite: a chaosserve-tagged daemon survives kill -9
# mid-calibration with byte-identical journal replay, boots over torn
# journals, rejects corrupt reloads under load with zero 5xx, and
# degrades/heals through injected panics (scripts/chaos-serve.sh).
chaos-serve:
	./scripts/chaos-serve.sh

# The tier-1+ gate: gofmt + vet + build + full tests + perfbench vet
# and tests + module-wide race pass + ceer-lint + escape cross-check +
# chaos determinism + bench smoke + serve bench gate + serve daemon
# smoke (scripts/check.sh).
check:
	./scripts/check.sh

#!/usr/bin/env bash
# Live-daemon chaos suite for `ceer serve` (DESIGN.md §14): a daemon
# built with -tags chaosserve is subjected to kill -9 mid-calibration,
# journal truncation, corrupt reloads under load, and injected handler
# panics, and must uphold the self-healing contracts:
#
#   1. Crash-safe calibration: a kill -9'd daemon's journal, replayed
#      by a fresh daemon, yields a calibrated predictor byte-identical
#      to an uninterrupted daemon fed the same observations.
#   2. A journal truncated mid-record (torn tail) boots cleanly: the
#      intact prefix replays, the fragment is trimmed and logged.
#   3. Corrupt / stale model files offered while prediction traffic
#      flows are rejected (422, typed cause) with zero 5xx responses
#      and an unchanged generation; the restored good file is accepted.
#   4. Injected handler panics become structured 500s, trip the
#      breaker into "degraded" (still serving), and panic-free time
#      heals the daemon back to "healthy".
#
# The zero-allocation pins for /v1/predict//v1/recommend are gated
# separately against BENCH_serve.json by scripts/check.sh — this
# script proves behaviour under faults, that gate proves the hot path
# stayed allocation-free with the recovery boundary installed.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
srv_pid=""
cleanup() {
    if [[ -n "${srv_pid}" ]] && kill -0 "${srv_pid}" 2>/dev/null; then
        kill -9 "${srv_pid}" 2>/dev/null || true
    fi
    rm -rf "${tmp}"
}
trap cleanup EXIT

echo "== chaos serve: build (-tags chaosserve)"
go build -tags chaosserve -o "${tmp}/ceer" ./cmd/ceer
# The tag-gated in-process injection test (invisible to plain
# `go test ./...`).
go test -tags chaosserve -count=1 -run TestChaosServe ./internal/serve >/dev/null

echo "== chaos serve: train (with observation log)"
"${tmp}/ceer" train -out "${tmp}/models.json" -obs-log "${tmp}/obs.jsonl" \
    -iters 25 -seed 1 >/dev/null
# A moderate observation batch is plenty; cap the stream so the suite
# stays fast.
head -n 2000 "${tmp}/obs.jsonl" >"${tmp}/batch.jsonl"

# boot <name> <extra flags...>: start a daemon, wait for its address in
# $base, record its pid in $srv_pid and log in $tmp/<name>.log.
boot() {
    local name=$1
    shift
    "${tmp}/ceer" serve -models "${tmp}/models.json" -addr 127.0.0.1:0 "$@" \
        >"${tmp}/${name}.log" 2>&1 &
    srv_pid=$!
    disown "${srv_pid}" # no job-control "Killed" noise when we kill -9 it
    base=""
    for _ in $(seq 1 200); do
        local addr
        addr=$(sed -n 's/^ceer serve: listening on \([^ ]*\).*/\1/p' "${tmp}/${name}.log")
        if [[ -n "${addr}" ]]; then
            base="http://${addr}"
            return 0
        fi
        if ! kill -0 "${srv_pid}" 2>/dev/null; then
            echo "chaos serve FAILED: ${name} exited during startup" >&2
            cat "${tmp}/${name}.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "chaos serve FAILED: ${name} never reported its address" >&2
    exit 1
}

# reap: wait (by polling — the pid is disowned) until the current
# daemon is gone.
reap() {
    for _ in $(seq 1 200); do
        kill -0 "${srv_pid}" 2>/dev/null || { srv_pid=""; return 0; }
        sleep 0.1
    done
    echo "chaos serve FAILED: daemon did not exit" >&2
    exit 1
}

# drain: SIGTERM the current daemon and wait for a clean exit.
drain() {
    kill -TERM "${srv_pid}"
    reap
}

# crash: kill -9 the current daemon, no warning, no flush.
crash() {
    kill -9 "${srv_pid}"
    reap
}

echo "== chaos serve: kill -9 mid-calibration, replay to byte-identical state"
# Uninterrupted control run: feed the batch, drain cleanly, save the
# calibrated predictor.
boot control -observe-journal "${tmp}/control.jsonl" -calib-out "${tmp}/control_calib.json"
curl -fsS --max-time 120 -X POST --data-binary @"${tmp}/batch.jsonl" \
    "${base}/v1/observe" -o "${tmp}/observe_control.json"
grep -q '"status": *"accepted"' "${tmp}/observe_control.json"
drain

# Victim run: feed the same batch, then kill -9 — no close, no final
# flush beyond the write-ahead contract (each journal write lands
# before any observation in it applies).
boot victim -observe-journal "${tmp}/victim.jsonl"
curl -fsS --max-time 120 -X POST --data-binary @"${tmp}/batch.jsonl" \
    "${base}/v1/observe" -o "${tmp}/observe_victim.json"
grep -q '"status": *"accepted"' "${tmp}/observe_victim.json"
crash

# Survivor: replay the victim's journal, drain, save — must match the
# control byte for byte.
boot survivor -observe-journal "${tmp}/victim.jsonl" -calib-out "${tmp}/survivor_calib.json"
grep -q "replayed 2000 observations" "${tmp}/survivor.log"
drain
if ! cmp -s "${tmp}/control_calib.json" "${tmp}/survivor_calib.json"; then
    echo "chaos serve FAILED: journal replay diverged from the uninterrupted run" >&2
    exit 1
fi

echo "== chaos serve: torn journal tail boots and is trimmed"
# Cut the journal mid-record: every complete line but the last, plus a
# 20-byte unterminated fragment of the last — a guaranteed torn tail.
head -n -1 "${tmp}/victim.jsonl" >"${tmp}/torn.jsonl"
tail -n 1 "${tmp}/victim.jsonl" | head -c 20 >>"${tmp}/torn.jsonl"
boot torn -observe-journal "${tmp}/torn.jsonl"
grep -q "torn final line" "${tmp}/torn.log"
curl -fsS --max-time 10 "${base}/healthz" -o "${tmp}/torn_healthz.json"
grep -q '"status": *"healthy"' "${tmp}/torn_healthz.json"
# The trimmed journal must accept appends and stay fully parseable:
# feed one more observation, restart over the same journal, and the
# boot log must count every intact line with no replay error.
head -n 1 "${tmp}/batch.jsonl" >"${tmp}/one.jsonl"
curl -fsS --max-time 30 -X POST --data-binary @"${tmp}/one.jsonl" \
    "${base}/v1/observe" >/dev/null
crash
boot torn2 -observe-journal "${tmp}/torn.jsonl"
grep -q "replayed [0-9]* observations$" "${tmp}/torn2.log"
drain

echo "== chaos serve: corrupt and stale reloads under load, zero 5xx"
boot reloads
# Continuous prediction traffic (with the occasional injected panic
# excluded — this phase proves reload isolation, not panic recovery).
: >"${tmp}/traffic_codes"
(
    for _ in $(seq 1 400); do
        curl -sS --max-time 10 -o /dev/null -w '%{http_code}\n' \
            "${base}/v1/predict?model=resnet-50" >>"${tmp}/traffic_codes" || true
    done
) &
traffic_pid=$!
cp "${tmp}/models.json" "${tmp}/models.good.json"
for i in 1 2 3; do
    echo '{torn mid-write' >"${tmp}/models.json"
    code=$(curl -sS --max-time 30 -X POST "${base}/admin/reload" \
        -o "${tmp}/reload_bad_${i}.json" -w '%{http_code}')
    if [[ "${code}" != "422" ]]; then
        echo "chaos serve FAILED: corrupt reload ${i} answered ${code}, want 422" >&2
        exit 1
    fi
    grep -q '"cause"' "${tmp}/reload_bad_${i}.json"
done
cp "${tmp}/models.good.json" "${tmp}/models.json"
curl -fsS --max-time 30 -X POST "${base}/admin/reload" -o "${tmp}/reload_good.json"
grep -q '"status": *"reloaded"' "${tmp}/reload_good.json"
grep -q '"generation": *1' "${tmp}/reload_good.json"
wait "${traffic_pid}"
if grep -qv '^200$' "${tmp}/traffic_codes"; then
    echo "chaos serve FAILED: non-200 prediction responses during reload chaos:" >&2
    sort "${tmp}/traffic_codes" | uniq -c >&2
    exit 1
fi
drain

echo "== chaos serve: injected panics degrade, panic-free time heals"
boot panics -panic-threshold 3 -panic-window 10s -panic-recovery 2s
for i in 1 2 3; do
    code=$(curl -sS --max-time 10 -o /dev/null -w '%{http_code}' \
        "${base}/v1/predict?model=resnet-50&chaos=panic")
    if [[ "${code}" != "500" ]]; then
        echo "chaos serve FAILED: injected panic ${i} answered ${code}, want 500" >&2
        exit 1
    fi
done
curl -fsS --max-time 10 "${base}/healthz" -o "${tmp}/degraded.json"
grep -q '"status": *"degraded"' "${tmp}/degraded.json"
grep -q '"panics": *3' "${tmp}/degraded.json"
# Degraded still serves predictions.
curl -fsS --max-time 10 -o /dev/null "${base}/v1/predict?model=resnet-50"
# Panic-free recovery window heals it.
sleep 2.5
curl -fsS --max-time 10 "${base}/healthz" -o "${tmp}/healed.json"
grep -q '"status": *"healthy"' "${tmp}/healed.json"
drain
grep -q "drained, bye" "${tmp}/panics.log"

echo "chaos serve: OK"

#!/usr/bin/env bash
# Escape-analysis cross-check for the hot-path allocation proof (see
# DESIGN.md §10). ceer-lint's allocfree analyzer proves allocation
# freedom from the AST up; this script asks the compiler to prove it
# from the other side: build the whole module with -gcflags=-m and feed
# the escape diagnostics back through `ceer-lint -escape-log`, which
# flags any "escapes to heap" / "moved to heap" landing inside a
# function the //hot:path walk covers, in whatever package the walk
# reaches. //lint:ignore allocfree lines suppress both sides.
#
# Set CEER_SKIP_ESCAPE=1 to skip (e.g. on toolchains whose -m output
# formatting is unvetted).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${CEER_SKIP_ESCAPE:-0}" == "1" ]]; then
    echo "lint-escape: skipped (CEER_SKIP_ESCAPE=1)"
    exit 0
fi

log="$(mktemp)"
trap 'rm -f "${log}"' EXIT

# -a forces recompilation so the diagnostics are emitted even when the
# build cache is warm.
go build -a -gcflags=-m ./... 2> "${log}" || {
    echo "lint-escape: go build -gcflags=-m failed:" >&2
    cat "${log}" >&2
    exit 1
}

go run ./cmd/ceer-lint -escape-log "${log}"

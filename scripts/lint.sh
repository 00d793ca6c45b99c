#!/usr/bin/env bash
# Static checks: compile, go vet, gofmt, and the repo's invariant
# analyzer suite (see internal/lint and DESIGN.md "Static invariants"),
# which TestModuleIsClean drives over the whole module. Run it locally
# before sending a change. One analyzer alone:
#   go test -count=1 -run 'TestModuleIsClean/noretain' ./internal/lint
#
# Usage: lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    echo "lint.sh: takes no arguments" >&2
    exit 2
fi

go build ./...
go vet ./...
gofmt_out="$(gofmt -l . 2>/dev/null | grep -v '^testdata/' || true)"
if [[ -n "${gofmt_out}" ]]; then
    echo "gofmt needed on:" >&2
    echo "${gofmt_out}" >&2
    exit 1
fi
go test -count=1 -run '^TestModuleIsClean$' ./internal/lint

echo "LINT OK"

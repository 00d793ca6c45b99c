#!/usr/bin/env bash
# Static checks: compile, go vet, and the repo's invariant analyzer
# suite (see internal/lint and DESIGN.md "Static invariants"). CI runs
# this before any tests; run it locally before sending a change.
#
# Usage: lint.sh [-run analyzer[,analyzer...]]
#   -run    run only the named analyzers (balint -list shows them)
set -euo pipefail
cd "$(dirname "$0")/.."

balint_args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
    -run)
        [[ $# -ge 2 ]] || { echo "lint.sh: -run needs an analyzer list" >&2; exit 2; }
        balint_args+=(-run "$2")
        shift 2
        ;;
    *)
        echo "lint.sh: unknown argument: $1" >&2
        exit 2
        ;;
    esac
done

go build ./...
go vet ./...
gofmt_out="$(gofmt -l . 2>/dev/null | grep -v '^testdata/' || true)"
if [[ -n "${gofmt_out}" ]]; then
    echo "gofmt needed on:" >&2
    echo "${gofmt_out}" >&2
    exit 1
fi
go run ./cmd/balint "${balint_args[@]}" ./...

echo "LINT OK"

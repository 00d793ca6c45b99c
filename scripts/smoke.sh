#!/usr/bin/env bash
# End-to-end smoke: builds everything, race-tests the concurrent
# packages, runs every CLI and example once.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Race-detect the packages with real concurrency (goroutines + sockets
# in the TCP transport, the one immutable Oracle every party reads in
# coin, the trial-parallel sampler in conformance), and stress the TCP
# transport: 5 repeated runs shake out the startup/shutdown, reconnect
# and churn races a single run can miss, and — every test of transport
# and service runs with released frames poisoned — a frame released
# while something still reads it.
go test -race ./internal/transport ./internal/coin ./internal/conformance ./internal/service
go test -race -count=5 -run 'TestRunLocal|TestHub|TestReconnect|TestMuxBounce|TestMuxNodeRedials|TestMuxChurn|TestFrameList|TestPoisonedFrames|TestMuxFlood' ./internal/transport
go test -race -count=5 -run 'TestServicePayloadRoundTrip|TestServiceUnderInjectedFaults' ./internal/service

go run ./examples/quickstart
go run ./examples/blockagree
go run ./examples/gradedvote
go run ./examples/tcpcluster
go run ./examples/adversarial

go run ./cmd/basim -protocol oneshot -n 7 -t 2 -kappa 8
go run ./cmd/basim -protocol half -n 5 -t 2 -kappa 6 -adversary worstcase -coin threshold
go run ./cmd/basim -protocol fm -n 4 -t 1 -kappa 4 -tcp
go run ./cmd/proxcast -dealer honest
go run ./cmd/proxcast -dealer equivocate
go run ./cmd/proxcast -dealer release -release 5 -s 9

# Chaos: seeded fault schedules over real TCP — a generated schedule,
# a hand-written replay spec, Byzantine wire-level attackers with the
# ingress validation layer screening the honest nodes, and the short
# seeded test sweep. The short round timeout keeps a crashed node's
# death cheap.
go run ./cmd/proxcast -s 5 -seed 3 -round-timeout 500ms
go run ./cmd/proxcast -s 5 -faults 'crash:2@3;drop:1@2;delay:0@1+20ms' -round-timeout 500ms
go run ./cmd/proxcast -s 5 -faults 'byz:5@equivocate;crash:2@3' -round-timeout 500ms
go run ./cmd/proxcast -s 5 -faults 'byz:4@dupflood;byz:5@malformed' -round-timeout 500ms
go run ./cmd/proxcast -s 6 -faults 'churn:2@2-4;net:lan@7' -round-timeout 500ms
go test -short -count=1 ./internal/chaos
go test -count=1 -run 'TestTCP' ./internal/ba

# Experiments, through the one experiment CLI: the checked-in smoke spec
# end-to-end — declarative sweep, timeout-wrapped trials, JSONL
# artifact, degradation curve and the zero-fault decision gate — then
# three paper tables, the last gated on its bounds, and a short
# conformance sweep. The artifacts go to a temporary directory, so a
# run leaves the checked-in results untouched.
lab_out="$(mktemp -d "${TMPDIR:-/tmp}/smoke-lab.XXXXXX")"
trap 'rm -rf "$lab_out"' EXIT
go run ./cmd/proxlab -spec experiments/specs/smoke-expand.json -out "$lab_out" -gate -q
go run ./cmd/proxlab -exp slots
go run ./cmd/proxlab -exp rounds13
go run ./cmd/proxlab -exp iterprob -trials 300 -gate
go run ./cmd/proxlab -conform all -strategies 100

# Consensus service: the proxserve daemon run in-process exactly as
# main runs it — found through -addr-file, driven over the client API
# (64 value proposals at batch 1, then 24 payloads of 2 KiB at batch 4,
# every one decided and every payload byte-equal) and ended by SIGTERM.
go test -race -count=1 ./cmd/proxserve

echo "SMOKE OK"

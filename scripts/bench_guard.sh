#!/usr/bin/env bash
# Ratcheting benchmark gate for the hot paths: the wire frame codec
# (BenchmarkFrame + its payload twin BenchmarkFramePayload), the
# ingress screen (BenchmarkIngress + BenchmarkIngressPayload), the
# engine round loop (BenchmarkEngineMode), and the ℓ-bit dissemination
# yardstick (BenchmarkPayloadDissemination, reported as bytes on wire
# per decided byte at n=16 and n=64). Two independent layers:
#
#  1. Machine-independent invariants, enforced everywhere:
#       - BenchmarkFrame/zero/n=256, BenchmarkIngress/batch/n=256 and
#         BenchmarkIngressPayload/batch/n=64 must report 0 allocs/op,
#         and allocs/op of every guarded benchmark must not exceed the
#         checked-in baseline. (BenchmarkFramePayload/zero is NOT
#         alloc-pinned: each decoded payload struct boxes into the
#         Payload interface — one unavoidable alloc per message — so it
#         is held by the baseline ratchet instead.) Two engine pins
#         are not machine-independent and are held accordingly:
#         BenchmarkEngineMode/par/* allocates per worker and runs one
#         worker per core, so it is compared only when this machine has
#         as many cores as the baseline's fingerprint records (the
#         1-core baseline box read 644/3031/14107, a 2-core box reads
#         692/3080/14157); BenchmarkEngineMode/seq/* may exceed its pin
#         by 0.1 %, which admits the one runtime-internal allocation a
#         5x run picks up on some machines (14108 vs 14107 at n=256)
#         and nothing the engine could add per round. No codec or
#         screen pin is loosened.
#       - Intra-run pair ratios: zero <= copy/2 and batch <= seq/2 at
#         n=256 and at the payload shapes (size=4096, n=64) — the >=2x
#         contract from DESIGN.md "Ingress hot path" —
#         and par <= seq for the engine — skipped below 4 cores, where
#         the parallel engine degenerates to scheduler noise.
#  2. Machine-dependent ratchet, enforced only when this machine's
#     fingerprint matches the one recorded in BENCH_baseline.json:
#     ns/op of the pooled hot paths (/zero/ and /batch/ variants) must
#     stay within 10% of the baseline. The allocating reference paths
#     and the multi-millisecond engine runs are excluded from the
#     ns/op ratchet — their GC- and scheduler-coupled variance exceeds
#     the threshold on shared hardware, so they are held by the pair
#     ratios and the allocs ratchet instead. On any other machine
#     absolute nanoseconds are not comparable and only layer 1 applies.
#
# Regenerate the baseline with scripts/bench_ratchet.sh after a
# deliberate perf change (see EXPERIMENTS.md).
#
#   scripts/bench_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_baseline.json"
cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
model="$(awk -F: '/model name/ {gsub(/^[ \t]+/, "", $2); print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
fingerprint="$(uname -sm)/${model:-unknown}/${cores}c"

raw="$(mktemp)"
cur="$(mktemp)"
base="$(mktemp)"
trap 'rm -f "$raw" "$cur" "$base"' EXIT

go test -bench 'BenchmarkFrame|BenchmarkIngress' -benchtime 100x -count 3 -run '^$' \
    ./internal/wire ./internal/validate | tee "$raw"
go test -bench 'BenchmarkEngineMode' -benchtime 5x -count 3 -run '^$' . | tee -a "$raw"
go test -bench 'BenchmarkPayloadDissemination' -benchtime 2x -count 3 -run '^$' \
    ./internal/ba | tee -a "$raw"

# Reduce to one line per benchmark: min ns/op (noise-robust), max
# allocs/op (any run allocating is a regression) across the -count runs.
awk '
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  ns = $3 + 0
  allocs = -1
  for (i = 4; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1) + 0
  if (!(name in minns) || ns < minns[name]) minns[name] = ns
  if (!(name in maxal) || allocs > maxal[name]) maxal[name] = allocs
}
END { for (n in minns) printf "%s %.2f %d\n", n, minns[n], maxal[n] }
' "$raw" | sort > "$cur"

fail=0

# --- Layer 1a: zero-allocation pins.
for want0 in 'BenchmarkFrame/zero/n=256' 'BenchmarkIngress/batch/n=256' \
    'BenchmarkIngressPayload/batch/n=64'; do
    allocs="$(awk -v n="$want0" '$1 == n {print $3}' "$cur")"
    if [[ -z "$allocs" ]]; then
        echo "bench_guard: FAIL — $want0 missing from benchmark output" >&2
        fail=1
    elif [[ "$allocs" -ne 0 ]]; then
        echo "bench_guard: FAIL — $want0 reports $allocs allocs/op, want 0" >&2
        fail=1
    fi
done

# --- Layer 1b: intra-run pair ratios.
ratio_check() { # slow_name fast_name max_ratio_pct label
    local slow fast
    slow="$(awk -v n="$1" '$1 == n {print $2}' "$cur")"
    fast="$(awk -v n="$2" '$1 == n {print $2}' "$cur")"
    if [[ -z "$slow" || -z "$fast" ]]; then
        echo "bench_guard: FAIL — pair $1 / $2 missing from output" >&2
        return 1
    fi
    awk -v slow="$slow" -v fast="$fast" -v pct="$3" -v label="$4" '
    BEGIN {
      printf "bench_guard: %s — %.0f vs %.0f ns/op (%.2fx)\n", label, slow, fast, slow / fast
      if (fast * 100 > slow * pct) {
        printf "bench_guard: FAIL — %s: %.0f ns/op exceeds %d%% of %.0f ns/op\n", label, fast, pct, slow
        exit 1
      }
    }'
}
ratio_check 'BenchmarkFrame/copy/n=256' 'BenchmarkFrame/zero/n=256' 50 \
    'frame decode, pooled vs copying' || fail=1
ratio_check 'BenchmarkIngress/seq/n=256' 'BenchmarkIngress/batch/n=256' 50 \
    'ingress screen, batched vs sequential' || fail=1
ratio_check 'BenchmarkFramePayload/copy/size=4096' 'BenchmarkFramePayload/zero/size=4096' 50 \
    'payload frame decode, aliasing vs copying' || fail=1
ratio_check 'BenchmarkIngressPayload/seq/n=64' 'BenchmarkIngressPayload/batch/n=64' 50 \
    'payload ingress screen, batched vs sequential' || fail=1
if [[ "$cores" -lt 4 ]]; then
    echo "bench_guard: only $cores CPU(s) online; engine par/seq criterion applies at >=4 cores — skipping"
else
    ratio_check 'BenchmarkEngineMode/seq/n=256' 'BenchmarkEngineMode/par/n=256' 100 \
        'engine round loop, parallel vs sequential' || fail=1
fi

# --- Dissemination yardstick report: bytes on wire per decided byte,
# straight from BenchmarkPayloadDissemination's b.ReportMetric output.
# Informational — the O(n*ell) claim is asserted by the ba tests; the
# guard surfaces the measured constant so drift is visible in CI logs.
awk '
/^BenchmarkPayloadDissemination/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  for (i = 4; i <= NF; i++) if ($i == "bytes/decbyte") {
    v = $(i - 1) + 0
    if (!(name in best) || v < best[name]) best[name] = v
  }
}
END { for (n in best) printf "bench_guard: %s — %.2f bytes on wire per decided byte\n", n, best[n] }
' "$raw" | sort

# --- Layer 2: ratchet against the checked-in baseline.
if [[ ! -f "$baseline" ]]; then
    echo "bench_guard: no $baseline — run scripts/bench_ratchet.sh to create one" >&2
    exit 1
fi
grep -o '"name": "[^"]*", "ns_op": [0-9.]*, "allocs_op": [0-9-]*' "$baseline" \
    | sed 's/"name": "\([^"]*\)", "ns_op": \([0-9.]*\), "allocs_op": \([0-9-]*\)/\1 \2 \3/' \
    | sort > "$base"
base_fp="$(grep -o '"fingerprint": "[^"]*"' "$baseline" | head -1 | sed 's/"fingerprint": "\(.*\)"/\1/')"

base_cores="${base_fp##*/}"
base_cores="${base_cores%c}"

same_machine=0
if [[ "$base_fp" == "$fingerprint" ]]; then
    same_machine=1
    echo "bench_guard: fingerprint matches baseline ($fingerprint) — ns/op ratchet active"
else
    echo "bench_guard: baseline from '$base_fp', this is '$fingerprint' — allocs ratchet only"
fi

while read -r name base_ns base_allocs; do
    line="$(awk -v n="$name" '$1 == n {print}' "$cur")"
    if [[ -z "$line" ]]; then
        echo "bench_guard: FAIL — baseline benchmark $name no longer runs" >&2
        fail=1
        continue
    fi
    cur_ns="$(awk '{print $2}' <<<"$line")"
    cur_allocs="$(awk '{print $3}' <<<"$line")"
    max_allocs="$base_allocs"
    case "$name" in
    BenchmarkEngineMode/par/*)
        # One worker per core: comparable only at the baseline's core count.
        if [[ "$cores" != "$base_cores" ]]; then
            echo "bench_guard: $name — $cur_allocs allocs/op on $cores cores, baseline $base_allocs on $base_cores: not compared"
            max_allocs=-1
        fi
        ;;
    BenchmarkEngineMode/seq/*) max_allocs=$((base_allocs + base_allocs / 1000)) ;;
    esac
    if [[ "$max_allocs" -ge 0 && "$cur_allocs" -gt "$max_allocs" ]]; then
        echo "bench_guard: FAIL — $name allocs/op regressed: $cur_allocs > baseline $base_allocs" >&2
        fail=1
    fi
    case "$name" in
    # FramePayload/zero boxes each decoded payload into an interface, so
    # it is an allocating path with GC-coupled sub-microsecond variance:
    # held by the allocs ratchet and the 2x pair ratio, not ns/op.
    BenchmarkFramePayload/zero/*) continue ;;
    */zero/* | */batch/*) ;;
    *) continue ;;
    esac
    if [[ "$same_machine" -eq 1 ]]; then
        awk -v cur="$cur_ns" -v base="$base_ns" -v name="$name" '
        BEGIN { if (cur > base * 1.10) {
          printf "bench_guard: FAIL — %s ns/op regressed: %.0f > baseline %.0f +10%%\n", name, cur, base
          exit 1
        }}' || fail=1
    fi
done < "$base"

if [[ "$fail" -ne 0 ]]; then
    echo "bench_guard: FAILED" >&2
    exit 1
fi
echo "bench_guard: OK"

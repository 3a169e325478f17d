#!/usr/bin/env bash
# benchguard.sh — benchmark-regression smoke for CI.
#
# Usage:
#   scripts/benchguard.sh run <out.txt>              # run the guarded benchmark, save raw output
#   scripts/benchguard.sh compare <base.txt> <head.txt> [max_allocs_regress_pct]
#
# `run` executes BenchmarkBatchServing at tiny scale with -benchmem and
# writes the raw `go test` output to <out.txt>.
#
# `compare` parses allocs/op for every BenchmarkBatchServing sub-benchmark
# present in both files and fails (exit 1) if any regressed by more than
# max_allocs_regress_pct percent (default 10). ns/op regressions are
# reported but only warn: shared CI runners make wall time too noisy for a
# hard gate, while allocs/op is deterministic for this workload — it
# counts allocation sites, not time — so it is the metric that catches a
# reverted arena or a re-boxed heap.
#
# B/op gates too, on the serial sub-benchmark only and at 25%: a walk
# frontier regrown from nothing on every query is a handful of allocations
# but ~95% of the bytes, so a reverted frontier pool passes the allocs/op
# gate and fails this one. The batch sub-benchmarks run workers whose
# scheduling moves bytes between runs, so they only report.
set -euo pipefail

BENCH='BenchmarkBatchServing'
BYTES_BENCH="$BENCH/serial"
BYTES_LIMIT=25
SCALE="${VKG_BENCH_SCALE:-tiny}"
COUNT="${BENCHGUARD_BENCHTIME:-5x}"

cmd="${1:-}"
case "$cmd" in
run)
    out="${2:?usage: benchguard.sh run <out.txt>}"
    VKG_BENCH_SCALE="$SCALE" go test -run '^$' -bench "$BENCH" \
        -benchmem -benchtime "$COUNT" . | tee "$out"
    grep -q "$BENCH" "$out" || { echo "benchguard: no $BENCH results in output" >&2; exit 2; }
    ;;
compare)
    base="${2:?usage: benchguard.sh compare <base.txt> <head.txt>}"
    head_="${3:?usage: benchguard.sh compare <base.txt> <head.txt>}"
    limit="${4:-10}"
    # Distinguish "the comparison found a regression" (exit 1) from "the
    # comparison never happened" (exit 2): a missing or malformed base file
    # must not pass as an empty loop over zero sub-benchmarks.
    for f in "$base" "$head_"; do
        if [ ! -f "$f" ]; then
            echo "benchguard: bench file '$f' does not exist — did the '$([ "$f" = "$base" ] && echo base || echo head)' run step fail or write elsewhere?" >&2
            exit 2
        fi
        if [ ! -s "$f" ]; then
            echo "benchguard: bench file '$f' is empty — the benchmark run produced no output" >&2
            exit 2
        fi
    done
    # Emit "name allocs ns bytes" per sub-benchmark from a raw go-test bench log.
    extract() {
        awk -v bench="$BENCH" '
            $1 ~ "^"bench {
                name=$1; allocs=""; ns=""; bytes=""
                for (i = 2; i <= NF; i++) {
                    if ($i == "allocs/op") allocs=$(i-1)
                    if ($i == "ns/op")     ns=$(i-1)
                    if ($i == "B/op")      bytes=$(i-1)
                }
                if (allocs != "") print name, allocs, ns, bytes
            }' "$1"
    }
    if [ -z "$(extract "$base")" ]; then
        echo "benchguard: no $BENCH results with allocs/op found in base file '$base' — malformed bench log (was it run with -benchmem?)" >&2
        exit 2
    fi
    if [ -z "$(extract "$head_")" ]; then
        echo "benchguard: no $BENCH results with allocs/op found in head file '$head_' — malformed bench log (was it run with -benchmem?)" >&2
        exit 2
    fi
    fail=0
    while read -r name base_allocs base_ns base_bytes; do
        line=$(extract "$head_" | awk -v n="$name" '$1 == n {print; exit}')
        [ -n "$line" ] || { echo "benchguard: $name missing from head run" >&2; continue; }
        head_allocs=$(echo "$line" | awk '{print $2}')
        head_ns=$(echo "$line" | awk '{print $3}')
        head_bytes=$(echo "$line" | awk '{print $4}')
        awk -v b="$base_allocs" -v h="$head_allocs" -v lim="$limit" -v n="$name" '
            BEGIN {
                pct = (b > 0) ? (h - b) * 100.0 / b : 0
                printf "%-45s allocs/op %12d -> %12d  (%+.1f%%)\n", n, b, h, pct
                exit (pct > lim) ? 1 : 0
            }' || { echo "  ^ FAIL: allocs/op regressed more than ${limit}%"; fail=1; }
        # The name carries go test's -GOMAXPROCS suffix; strip it to match.
        if [ "${name%-[0-9]*}" = "$BYTES_BENCH" ]; then
            awk -v b="$base_bytes" -v h="$head_bytes" -v lim="$BYTES_LIMIT" -v n="$name" '
                BEGIN {
                    pct = (b > 0) ? (h - b) * 100.0 / b : 0
                    printf "%-45s B/op      %12d -> %12d  (%+.1f%%)\n", n, b, h, pct
                    exit (pct > lim) ? 1 : 0
                }' || { echo "  ^ FAIL: B/op regressed more than ${BYTES_LIMIT}%"; fail=1; }
        fi
        awk -v b="$base_ns" -v h="$head_ns" -v n="$name" '
            BEGIN {
                pct = (b > 0) ? (h - b) * 100.0 / b : 0
                if (pct > 25) printf "%-45s WARN: ns/op %+.1f%% (noisy metric, not gating)\n", n, pct
            }'
    done < <(extract "$base")
    [ "$fail" -eq 0 ] || exit 1
    echo "benchguard: allocs/op within ${limit}% of base for all $BENCH sub-benchmarks, B/op within ${BYTES_LIMIT}% on $BYTES_BENCH"
    ;;
*)
    echo "usage: benchguard.sh run <out.txt> | compare <base.txt> <head.txt> [max_pct]" >&2
    exit 2
    ;;
esac

#!/usr/bin/env bash
# Guards the cold query path, the connection layer, the incremental append
# path and the observability overhead: compares a fresh
# BENCH_server_roundtrip.json against the committed baseline and fails if
# the uncached round-trip mean regressed by more than 2x (CI boxes are
# noisy, but a genuine fall off the columnar path costs ~10x and will trip
# this), if the cache-hit round-trip under 1k parked idle connections
# strays beyond 2x of the plain cache-hit baseline (idle sockets must cost
# the active client nothing), if any append of the run dropped a cached
# selection instead of re-freezing it (the `incremental` counters of the
# fresh JSON: `fallback_rebuilds` must be 0 and `snapshots_refrozen` must
# equal `delta_batches`), if the cache-hit
# mean — histograms recording, tracing off
# — strays beyond 1.10x of the committed baseline (the always-on
# observability hooks must stay near-free on the hot path), or if the
# WAL-armed append stream costs more than 1.5x the WAL-off stream
# (durability must be a thin log, not a second ingest).
#
# Usage: check_bench_regression.sh <fresh.json>
#
# The baseline is the committed bench-baselines/BENCH_server_roundtrip.json
# and the limits are fixed.
#
# Every check runs even after an earlier one fails, so a single run reports
# the full set of regressions; the exit status is non-zero if any check
# failed.
#
# Plain grep/awk over the flat one-case-per-line JSON the benches emit; no
# jq/python so the script runs anywhere the benches do.
set -euo pipefail

fresh="${1:?usage: check_bench_regression.sh <fresh.json>}"
readonly baseline="$(dirname "$0")/../bench-baselines/BENCH_server_roundtrip.json"
readonly factor=2
# The tracing-overhead gate is intentionally tighter than the generic
# factor.
readonly obs_factor=1.10

failures=0

mean_ns() { # <file> <case> -> mean in ns
    awk -v name="\"$2\":" '$1 == name {
        for (i = 1; i <= NF; i++) if ($i == "\"mean\":") {
            gsub(/,/, "", $(i + 1)); print $(i + 1); exit
        }
    }' "$1"
}

check_case() { # <case> [factor]
    local case="$1" limit="${2:-$factor}" base_mean fresh_mean
    base_mean=$(mean_ns "$baseline" "$case")
    fresh_mean=$(mean_ns "$fresh" "$case")
    if [ -z "$base_mean" ] || [ -z "$fresh_mean" ]; then
        echo "check_bench_regression: case \"$case\" missing from $baseline or $fresh" >&2
        failures=$((failures + 1))
        return
    fi
    if awk -v f="$fresh_mean" -v b="$base_mean" -v x="$limit" \
        'BEGIN { exit !(f <= b * x) }'; then
        echo "ok: $case ${fresh_mean}ns vs baseline ${base_mean}ns (limit ${limit}x)"
    else
        echo "REGRESSION: $case ${fresh_mean}ns > ${limit}x baseline ${base_mean}ns" >&2
        failures=$((failures + 1))
    fi
}

incremental_count() { # <file> <counter> -> the counter on the "incremental" line
    awk -v name="\"$2\":" '$1 == "\"incremental\":" {
        for (i = 1; i <= NF; i++) if ($i == name) {
            gsub(/[,}]/, "", $(i + 1)); print $(i + 1); exit
        }
    }' "$1"
}

check_refreezes() { # every delta batch re-froze the cached selection, none fell back
    local batches refrozen fallbacks
    batches=$(incremental_count "$fresh" delta_batches)
    refrozen=$(incremental_count "$fresh" snapshots_refrozen)
    fallbacks=$(incremental_count "$fresh" fallback_rebuilds)
    if [ -z "$batches" ] || [ -z "$refrozen" ] || [ -z "$fallbacks" ]; then
        echo "check_bench_regression: incremental counters missing from $fresh" >&2
        failures=$((failures + 1))
        return
    fi
    if [ "$fallbacks" -eq 0 ] && [ "$refrozen" -eq "$batches" ]; then
        echo "ok: incremental snapshots_refrozen $refrozen == delta_batches $batches, fallback_rebuilds 0"
    else
        echo "REGRESSION: incremental snapshots_refrozen $refrozen (delta_batches $batches), fallback_rebuilds $fallbacks" >&2
        failures=$((failures + 1))
    fi
}

report_ratio() { # <numerator-case> <denominator-case>  (both in fresh; printed, not gated)
    local num_mean den_mean
    num_mean=$(mean_ns "$fresh" "$1")
    den_mean=$(mean_ns "$fresh" "$2")
    if [ -n "$num_mean" ] && [ -n "$den_mean" ]; then
        echo "info: $1 ${num_mean}ns = $(awk -v n="$num_mean" -v d="$den_mean" \
            'BEGIN { printf "%.2f", n / d }')x $2 ${den_mean}ns"
    fi
}

check_cross() { # <fresh-case> <baseline-case>
    local fresh_case="$1" base_case="$2" base_mean fresh_mean
    base_mean=$(mean_ns "$baseline" "$base_case")
    fresh_mean=$(mean_ns "$fresh" "$fresh_case")
    if [ -z "$base_mean" ] || [ -z "$fresh_mean" ]; then
        echo "check_bench_regression: case \"$fresh_case\"/\"$base_case\" missing from $fresh or $baseline" >&2
        failures=$((failures + 1))
        return
    fi
    if awk -v f="$fresh_mean" -v b="$base_mean" -v x="$factor" \
        'BEGIN { exit !(f <= b * x) }'; then
        echo "ok: $fresh_case ${fresh_mean}ns vs baseline $base_case ${base_mean}ns (limit ${factor}x)"
    else
        echo "REGRESSION: $fresh_case ${fresh_mean}ns > ${factor}x baseline $base_case ${base_mean}ns" >&2
        failures=$((failures + 1))
    fi
}

check_ratio() { # <numerator-case> <denominator-case> <max-ratio>  (both in fresh)
    local num_case="$1" den_case="$2" ratio="$3" num_mean den_mean
    num_mean=$(mean_ns "$fresh" "$num_case")
    den_mean=$(mean_ns "$fresh" "$den_case")
    if [ -z "$num_mean" ] || [ -z "$den_mean" ]; then
        echo "check_bench_regression: case \"$num_case\"/\"$den_case\" missing from $fresh" >&2
        failures=$((failures + 1))
        return
    fi
    if awk -v n="$num_mean" -v d="$den_mean" -v x="$ratio" \
        'BEGIN { exit !(n <= d * x) }'; then
        echo "ok: $num_case ${num_mean}ns <= ${ratio}x $den_case ${den_mean}ns"
    else
        echo "REGRESSION: $num_case ${num_mean}ns > ${ratio}x $den_case ${den_mean}ns" >&2
        failures=$((failures + 1))
    fi
}

check_case uncached
check_case cold_columnar
check_case cache_hit_idle1k
check_case append_stream_sustained
check_case traced_query
# Tracing-overhead gate: the cache-hit path always records stage histograms
# but captures no spans unless asked — that always-on cost must stay within
# 1.10x of the committed baseline.
check_case cache_hit "$obs_factor"
# Active-client latency under 1k parked idles must stay within the factor
# of the *unloaded* cache-hit baseline: idle sockets are not allowed to tax
# the hot path.
check_cross cache_hit_idle1k cache_hit
# The incremental path's whole point: every append re-freezes the cached
# selection instead of dropping it. The counters are deterministic, so the
# check cannot flake on a slow box. The first query after an append builds
# the re-frozen selection's statistics by design, so its time against a
# cold freeze of the same table is printed, not gated.
check_refreezes
report_ratio append_then_hit append_cold_freeze
# Durability tax: the WAL-armed sustained append (batch fsync policy) must
# stay within 1.5x of the WAL-off append stream — the log path is one
# buffered encode + CRC + write, not a second ingest.
check_ratio wal_append append_stream_sustained 1.5

if [ "$failures" -gt 0 ]; then
    echo "check_bench_regression: $failures check(s) failed" >&2
    exit 1
fi

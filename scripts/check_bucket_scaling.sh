#!/usr/bin/env bash
# Guards the §3.3 bucket splitter against falling back to quadratic cost:
# reads a fresh BENCH_bucket_scaling.json and, for each value shape (int,
# grid, offgrid), prints the same-run ratio min-time(2c)/min-time(c) of
# every doubling step, then fails if the sweep's mean per-doubling ratio
# (time(c_max)/time(c_min))^(1/doublings) reaches 2.5.
#
# Why the mean and not every single step: Algorithm 1 scans each bucket it
# pops, so its work is c times the number of split levels, and that level
# count is a property of the data (2–5 on these shapes, moving either way
# between neighbouring sizes). One doubling step can therefore cost up to
# 4.7x on linear code (measured: grid 64k -> 128k). Over the 1k–1M sweep
# that wobble averages out to ~2.1x per doubling, while a quadratic
# splitter costs ~4x and an O(c^1.5) one ~2.8x.
#
# Usage: check_bucket_scaling.sh <BENCH_bucket_scaling.json>
#
# Plain awk over the one-case-per-line JSON the bench emits; every shape is
# checked before the exit status is decided.
set -euo pipefail

fresh="${1:?usage: check_bucket_scaling.sh <BENCH_bucket_scaling.json>}"
readonly limit=2.5
failures=0

for shape in int grid offgrid; do
    if awk -v shape="\"$shape\"," -v limit="$limit" -v label="$shape" '
        BEGIN { n = 0 }
        $0 ~ "\"shape\": " shape {
            for (i = 1; i <= NF; i++) {
                if ($i == "\"c\":") { c = $(i + 1); gsub(/,/, "", c) }
                if ($i == "\"min\":") { t = $(i + 1); gsub(/[,}]/, "", t) }
            }
            if (n > 0)
                printf "  %s c%d -> c%d: %.2fx\n", label, cs[n - 1], c, t / ts[n - 1]
            cs[n] = c; ts[n] = t; n++
        }
        END {
            if (n < 2) { printf "check_bucket_scaling: fewer than two %s cases\n", label; exit 1 }
            doublings = log(cs[n - 1] / cs[0]) / log(2)
            mean = exp(log(ts[n - 1] / ts[0]) / doublings)
            if (mean < limit) {
                printf "ok: %s c%d..c%d mean per-doubling ratio %.2fx < %sx\n", label, cs[0], cs[n - 1], mean, limit
                exit 0
            }
            printf "REGRESSION: %s c%d..c%d mean per-doubling ratio %.2fx >= %sx\n", label, cs[0], cs[n - 1], mean, limit
            exit 1
        }' "$fresh"; then
        :
    else
        failures=$((failures + 1))
    fi
done

if [ "$failures" -gt 0 ]; then
    echo "check_bucket_scaling: $failures shape(s) failed" >&2
    exit 1
fi

#!/usr/bin/env bash
# Regenerates the committed benchmark inputs and references with relperf_cli,
# a program independent of the benchmark driver:
#
#   bash relbench/refs/make_refs.sh build/tools/relperf_cli
#
# 1. adaptive-clustering-seeds.txt: the clustering seeds, from 42 upwards,
#    whose adaptive op has the default plan's shape (3 engine rounds,
#    4 clusterings, 135 samples). Benchmark seed s runs the adaptive
#    workload on line s mod 64 (see relbench/README.md for why).
# 2. seed-0/ and seed-1/: the references of the default seed and of the
#    held-out seed. On fixed and cache, seed s shifts measurement_seed and
#    clustering_seed by s. The default seed's N = 30 cache reference is
#    ci/golden/campaign_clusters.csv itself, so it is not written here.
#
# Run this only after a change that is meant to move a clustering or the
# adaptive op's shape, and review the diff.
set -euo pipefail

cli=$(realpath "$1")
refs=$(cd "$(dirname "$0")" && pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

"$cli" --campaign-init base.spec >/dev/null

# plan <out> <measurement seed shift> <clustering seed shift> [key=value...]
plan() {
    local out=$1 ms=$2 cs=$3
    shift 3
    sed -e "s/^measurement_seed = .*/measurement_seed = $((65261 + ms))/" \
        -e "s/^clustering_seed = .*/clustering_seed = $((42 + cs))/" \
        base.spec >"$out"
    for kv in "$@"; do
        sed -i "s/^${kv%%=*} = .*/${kv%%=*} = ${kv#*=}/" "$out"
    done
}

adaptive() { # adaptive <spec> [relperf_cli options...]
    local spec=$1
    shift
    "$cli" --campaign "$spec" --adaptive --min-n 10 --coordinated \
        --confidence 0.95 --run --shards 4 "$@"
}

seeds="$refs/adaptive-clustering-seeds.txt"
: >"$seeds"
shift_by=0
while [ "$(wc -l <"$seeds")" -lt 64 ]; do
    plan vet.spec 0 "$shift_by"
    rounds=$(adaptive vet.spec --metrics vet.prom |
        sed -n 's/^coordinator: \([0-9]*\) rounds.*/\1/p')
    clusterings=$(awk '$1 == "relperf_clusterings_total" {print $2}' vet.prom)
    samples=$(awk '$1 == "relperf_samples_total" {print $2}' vet.prom)
    if [ "$rounds" = 3 ] && [ "$clusterings" = 4 ] && [ "$samples" = 135 ]; then
        echo $((42 + shift_by)) >>"$seeds"
    fi
    shift_by=$((shift_by + 1))
done

for seed in 0 1; do
    dir="$refs/seed-$seed"
    mkdir -p "$dir"
    plan fixed.spec "$seed" "$seed" sizes=40,60,90,140 iters=6
    "$cli" --campaign fixed.spec --run --shards 4 --workers 4 \
        --out "$dir/fixed.csv" >/dev/null
    plan adaptive.spec 0 $(($(sed -n "$((seed + 1))p" "$seeds") - 42))
    adaptive adaptive.spec --out "$dir/adaptive.csv" \
        --samples-csv "$dir/adaptive-samples.csv" >/dev/null
    if [ "$seed" != 0 ]; then
        plan n30.spec "$seed" "$seed"
        "$cli" --campaign n30.spec --run --shards 2 --workers 2 \
            --out "$dir/cache-n30.csv" >/dev/null
    fi
    plan n40.spec "$seed" "$seed" measurements=40
    "$cli" --campaign n40.spec --run --shards 2 --workers 2 \
        --out "$dir/cache-n40.csv" >/dev/null
done

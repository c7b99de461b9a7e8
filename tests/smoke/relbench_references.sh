#!/bin/sh
# Replays the relperf_cli calls of relbench/refs/make_refs.sh for benchmark
# seeds 0 and 1 and cmp's each output against the committed reference:
#
#   sh tests/smoke/relbench_references.sh build/tools/relperf_cli relbench/refs
#
# So the 9 reference files are pinned by tier-1, not only by benchmark runs.
# It reads the references and writes only into a temporary directory.
set -eu

cli=$(realpath "$1")
refs=$(realpath "$2")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

"$cli" --campaign-init base.spec > /dev/null

# plan <out> <measurement seed shift> <clustering seed shift> [key=value...]
plan() {
    out=$1 ms=$2 cs=$3
    shift 3
    sed -e "s/^measurement_seed = .*/measurement_seed = $((65261 + ms))/" \
        -e "s/^clustering_seed = .*/clustering_seed = $((42 + cs))/" \
        base.spec > "$out"
    for kv in "$@"; do
        sed -i "s/^${kv%%=*} = .*/${kv%%=*} = ${kv#*=}/" "$out"
    done
}

checked=0
same() { # same <output> <reference>
    cmp "$1" "$2"
    checked=$((checked + 1))
}

for seed in 0 1; do
    ref="$refs/seed-$seed"
    plan fixed.spec "$seed" "$seed" sizes=40,60,90,140 iters=6
    "$cli" --campaign fixed.spec --run --shards 4 --workers 4 \
        --out fixed.csv > /dev/null
    same fixed.csv "$ref/fixed.csv"

    # Benchmark seed s runs the adaptive op on line s + 1 of the seeds file.
    clustering_seed=$(sed -n "$((seed + 1))p" "$refs/adaptive-clustering-seeds.txt")
    plan adaptive.spec 0 $((clustering_seed - 42))
    "$cli" --campaign adaptive.spec --adaptive --min-n 10 --coordinated \
        --confidence 0.95 --run --shards 4 --out adaptive.csv \
        --samples-csv adaptive-samples.csv > /dev/null
    same adaptive.csv "$ref/adaptive.csv"
    same adaptive-samples.csv "$ref/adaptive-samples.csv"

    # Seed 0's N = 30 cache reference is ci/golden/campaign_clusters.csv,
    # which smoke.campaign_workers_golden pins.
    if [ "$seed" != 0 ]; then
        plan n30.spec "$seed" "$seed"
        "$cli" --campaign n30.spec --run --shards 2 --workers 2 \
            --out cache-n30.csv > /dev/null
        same cache-n30.csv "$ref/cache-n30.csv"
    fi
    plan n40.spec "$seed" "$seed" measurements=40
    "$cli" --campaign n40.spec --run --shards 2 --workers 2 \
        --out cache-n40.csv > /dev/null
    same cache-n40.csv "$ref/cache-n40.csv"
done
echo "relbench references reproduced: $checked files"

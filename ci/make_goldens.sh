#!/bin/sh
# The same-bits goldens in ci/golden/: the default-option stdout of 11 paper
# benches and 4 examples (<program>.out), and four CSVs of the CI campaign
# plan (the fixed-N run's clustering and merged measurements, and the
# coordinated confidence-0.95 run's per-algorithm counts and stop-set).
#
#   sh ci/make_goldens.sh <build-dir>                rewrite every golden
#   sh ci/make_goldens.sh --check <golden> <program> rerun one golden's
#                                                    command and cmp it
#
# ctest runs the second form once per golden (smoke.golden.<name>). The first
# is the only way a golden changes: a change that moves bits on purpose runs
# it and says why in CHANGES.md. No golden holds a wall time, a thread count
# or a backend name, so each holds at any thread count and in every build.
# smoke.campaign_workers_golden, not a smoke.golden test, checks
# campaign_clusters.csv, at several worker counts.
set -eu

golden_dir=$(cd "$(dirname "$0")/golden" && pwd)

programs="bench/bench_table1_clustering bench/bench_fig1b_distributions
bench/bench_fig2_sort_trace bench/bench_decision_tradeoff
bench/bench_energy_switching bench/bench_speedup_n_sweep
bench/bench_ablation_noise bench/bench_ablation_comparators
bench/bench_ablation_bootstrap bench/bench_model_prediction
bench/bench_search_scaling examples/quickstart
examples/edge_offload_explorer examples/energy_aware_scheduler
examples/exponential_search"
campaign_files="campaign_clusters.csv campaign_merged.csv
coordinated_samples.csv coordinated_stopset.csv"

# produce <golden> <program> <output>: runs the command behind one golden in
# a fresh temporary directory and writes what it pins to <output>.
produce() {
    name=$1 program=$(realpath "$2") out=$(realpath "$3")
    dir=$(mktemp -d)
    (
        cd "$dir"
        case $name in
        *.out)
            "$program" > "$out" ;;
        campaign_clusters.csv | campaign_merged.csv)
            "$program" --campaign-init plan.spec > /dev/null
            "$program" --campaign plan.spec --run --shards 2 \
                --merged-csv merged.csv --out clusters.csv > /dev/null
            cp "${name#campaign_}" "$out" ;;
        coordinated_samples.csv | coordinated_stopset.csv)
            "$program" --campaign-init plan.spec > /dev/null
            "$program" --campaign plan.spec --adaptive --min-n 10 \
                --coordinated --confidence 0.95 --run --shards 4 \
                --out clusters.csv --samples-csv samples.csv \
                --stopset-csv stopset.csv > /dev/null
            cp "${name#coordinated_}" "$out" ;;
        *)
            echo "make_goldens.sh: no command for golden '$name'" >&2
            exit 2 ;;
        esac
    ) || { rm -rf "$dir"; return 1; }
    rm -rf "$dir"
}

if [ "${1:-}" = --check ]; then
    [ $# -eq 3 ] || { echo "usage: $0 --check <golden> <program>" >&2; exit 2; }
    actual=$(mktemp)
    trap 'rm -f "$actual"' EXIT
    produce "$2" "$3" "$actual"
    cmp "$actual" "$golden_dir/$2"
    exit 0
fi

[ $# -eq 1 ] || { echo "usage: $0 <build-dir>" >&2; exit 2; }
build=$(realpath "$1")
for program in $programs; do
    produce "$(basename "$program").out" "$build/$program" \
        "$golden_dir/$(basename "$program").out"
done
for name in $campaign_files; do
    produce "$name" "$build/tools/relperf_cli" "$golden_dir/$name"
done
echo "goldens written to $golden_dir"

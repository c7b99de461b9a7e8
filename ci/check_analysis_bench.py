#!/usr/bin/env python3
"""Validate bench_analysis's CSV artifact.

Usage: check_analysis_bench.py ANALYSIS_CSV

Asserts that
  * the header is exactly section,metric,param,value and every row is
    complete;
  * every value parses as a finite number;
  * the four sections the bench promises (comparator, clusterer, engine,
    coordination) are all present;
  * the comparator speedup row exists and is above 2.0 (counting select
    against the loop that sorts every resample measured 7.5x on a 4-vCPU
    Xeon VM, GCC 12 Release; the floor leaves room for noisy CI runners
    while still catching the fast path regressing outright);
  * the clusterer section covers the documented problem sizes, and at
    p = 64 and p = 256 also the run on all hardware threads (param
    p=P,workers=N; bench_analysis itself fails if that clustering differs
    from the serial one). No speedup floor: CI runners' parallel capacity
    varies;
  * the engine section carries the 32-algorithm run's wall time, and its
    round count (4) and saved samples (1,520) are exactly the pinned values
    (the synthetic source and the default --seed fix them, so these are
    equalities);
  * the coordination section covers both stopping rules at K in {1, 4, 16},
    every run saved samples, and for each rule the saved count is
    monotonically non-decreasing in K (coordinated stopping promises
    K-invariant counts, so any *decrease* with more shards is a bug, not
    noise — the values are deterministic);
  * the cache section covers the cold/exact/prefix tiers, the cold run
    served nothing, the exact hit served every sample, and the prefix
    extension served the cached budget's worth (all deterministic counts,
    so these are equalities, not floors).

Exits non-zero with a message naming the first violated invariant.
"""

import csv
import math
import sys

EXPECTED_HEADER = ["section", "metric", "param", "value"]
EXPECTED_SECTIONS = {"comparator", "clusterer", "engine", "coordination",
                     "cache"}
SPEEDUP_FLOOR = 2.0
ENGINE_PARAM = "p=32"
ENGINE_ROUNDS = 4
ENGINE_SAVED_SAMPLES = 1520
COORDINATION_RULES = ("stability", "confidence")
COORDINATION_SHARDS = (1, 4, 16)


def fail(message: str) -> None:
    print(f"check_analysis_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_analysis_bench.py ANALYSIS_CSV")
    path = sys.argv[1]

    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            fail(f"{path}: empty file")
        if header != EXPECTED_HEADER:
            fail(f"{path}: header {header} != {EXPECTED_HEADER}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(EXPECTED_HEADER):
                fail(f"{path}:{lineno}: expected {len(EXPECTED_HEADER)} "
                     f"fields, got {len(row)}")
            section, metric, param, raw = row
            try:
                value = float(raw)
            except ValueError:
                fail(f"{path}:{lineno}: value '{raw}' is not a number")
            if not math.isfinite(value):
                fail(f"{path}:{lineno}: value {raw} is not finite")
            rows.append((section, metric, param, value))

    if not rows:
        fail(f"{path}: no data rows")

    sections = {section for section, _, _, _ in rows}
    missing = EXPECTED_SECTIONS - sections
    if missing:
        fail(f"{path}: missing sections {sorted(missing)}")

    def find(section: str, metric: str) -> dict:
        return {param: value for s, m, param, value in rows
                if s == section and m == metric}

    speedups = find("comparator", "speedup")
    if not speedups:
        fail(f"{path}: no comparator speedup row")
    for param, value in speedups.items():
        if value <= SPEEDUP_FLOOR:
            fail(f"{path}: comparator speedup ({param}) = {value:.3f} "
                 f"<= {SPEEDUP_FLOOR} — the counting-select comparator "
                 f"(rank histogram per round) has regressed")

    sparse = find("clusterer", "sparse_wall_ms")
    for expected in ("p=64", "p=256", "p=1024"):
        if expected not in sparse:
            fail(f"{path}: clusterer sparse_wall_ms missing {expected}")
    for p in ("p=64", "p=256"):
        if not any(param.startswith(f"{p},workers=") for param in sparse):
            fail(f"{path}: clusterer sparse_wall_ms missing the all-cores "
                 f"row {p},workers=N")

    if ENGINE_PARAM not in find("engine", "run_wall_ms"):
        fail(f"{path}: engine run_wall_ms missing {ENGINE_PARAM}")
    for metric, expected in (("rounds", ENGINE_ROUNDS),
                             ("saved_samples", ENGINE_SAVED_SAMPLES)):
        value = find("engine", metric).get(ENGINE_PARAM)
        if value is None:
            fail(f"{path}: engine {metric} missing {ENGINE_PARAM}")
        if value != expected:
            fail(f"{path}: engine {metric} ({ENGINE_PARAM}) = {value:.0f}, "
                 f"expected exactly {expected} — the engine's stop "
                 f"decisions on the deterministic source have moved")

    saved = find("coordination", "saved_samples")
    for rule in COORDINATION_RULES:
        previous = None
        for shards in COORDINATION_SHARDS:
            param = f"rule={rule},K={shards}"
            if param not in saved:
                fail(f"{path}: coordination saved_samples missing {param}")
            value = saved[param]
            if value <= 0:
                fail(f"{path}: coordination {param} saved {value:.0f} "
                     f"samples — adaptive stopping never fired")
            if previous is not None and value < previous:
                fail(f"{path}: coordination rule={rule} saved samples "
                     f"decreased from {previous:.0f} to {value:.0f} as K "
                     f"grew — coordinated counts must be K-invariant")
            previous = value

    cache_wall = find("cache", "run_wall_ms")
    cache_served = find("cache", "samples_from_cache")
    for tier in ("tier=cold", "tier=exact", "tier=prefix"):
        if tier not in cache_wall:
            fail(f"{path}: cache run_wall_ms missing {tier}")
        if tier not in cache_served:
            fail(f"{path}: cache samples_from_cache missing {tier}")
    if cache_served["tier=cold"] != 0:
        fail(f"{path}: cache cold run served "
             f"{cache_served['tier=cold']:.0f} samples — a cold run must "
             f"draw everything")
    if cache_served["tier=exact"] <= 0:
        fail(f"{path}: cache exact hit served nothing — the entry was "
             f"never hit")
    if cache_served["tier=prefix"] <= 0:
        fail(f"{path}: cache prefix extension served nothing — the "
             f"smaller-budget entry was not reused")
    if cache_served["tier=prefix"] != cache_served["tier=exact"]:
        fail(f"{path}: cache prefix extension served "
             f"{cache_served['tier=prefix']:.0f} samples, expected exactly "
             f"the cached budget ({cache_served['tier=exact']:.0f}) — "
             f"the replayed prefix is deterministic")

    print(f"check_analysis_bench: OK ({len(rows)} rows, "
          f"sections {sorted(sections)})")


if __name__ == "__main__":
    main()

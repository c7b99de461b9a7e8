#!/usr/bin/env python3
"""Cross-check relperf's observability outputs against each other.

Usage: check_obs.py TRACE_JSON METRICS_PROM SAMPLES_CSV --rounds R
                    [--coordinated | --fixed-n]

The mode names the kind of `relperf_cli --campaign ... --run` that wrote the
files: shard-local adaptive (no flag), coordinated adaptive (--coordinated)
or fixed N (--fixed-n). R is the plan's `bootstrap_rounds`.

Asserts that
  * the trace file is valid JSON of the Chrome trace-event object form,
    every event is a complete ("ph": "X") event with the fields the format
    requires, nothing was dropped, and the provenance record is attached;
  * the trace carries the mode's spans: engine.run, measure_all and
    clusterer.cluster on adaptive runs; shard.run, campaign.merge,
    measure_all and clusterer.cluster on fixed-N runs;
  * the Prometheus dump parses and carries the relperf counters plus the
    relperf_build_info info metric, and relperf_samples_total does not
    exceed relperf_samples_fixed_n_total;
  * relperf_samples_total equals the sum of the per-algorithm counts in the
    samples CSV — the metrics side and the measurement side of the run must
    tell the same story;
  * relperf_bootstrap_resamples_total equals 2·R·Σ repetitions·p(p−1)/2
    over the trace's clusterer.cluster spans, read from their `algorithms`
    (p) and `repetitions` args: each repetition's sort compares every pair
    once, and each comparison draws two resamples per round, settled
    rounds included;
  * without a mode flag (a shard-local adaptive campaign):
    relperf_clusterings_total == relperf_adaptive_rounds + 1 (each shard's
    engine clusters once per round, and the merge clusters once more);
  * with --coordinated (a coordinated adaptive campaign): the trace carries
    the campaign.coordinate span, both coordination counters fired,
    relperf_stopset_broadcast_total is a whole multiple of
    relperf_coordination_rounds (each round broadcasts to every shard),
    relperf_adaptive_rounds equals relperf_coordination_rounds (one
    coordination round per engine round), and relperf_clusterings_total
    equals relperf_coordination_rounds (each round clusters once, and the
    last round's clustering is the one published);
  * with --fixed-n (a fixed-N campaign): every planned sample was drawn
    (relperf_samples_total == relperf_samples_fixed_n_total), no engine
    round ran (relperf_adaptive_rounds == 0: fixed-N shards only measure)
    and the merged set was clustered exactly once.

Exits non-zero with a message naming the first violated invariant.
"""

import csv
import json
import sys


def fail(message: str) -> None:
    print(f"check_obs: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


SPANS = {
    "adaptive": ["engine.run", "measure_all", "clusterer.cluster"],
    "coordinated": ["engine.run", "measure_all", "clusterer.cluster",
                    "campaign.coordinate"],
    "fixed-n": ["shard.run", "campaign.merge", "measure_all",
                "clusterer.cluster"],
}


def check_trace(path: str, mode: str) -> list:
    with open(path, encoding="utf-8") as handle:
        try:
            trace = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"{path} is not valid JSON: {err}")

    if not isinstance(trace, dict):
        fail(f"{path}: expected the object trace form, got {type(trace)}")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    required = {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"}
    names = set()
    for i, event in enumerate(events):
        missing = required - event.keys()
        if missing:
            fail(f"{path}: event {i} lacks {sorted(missing)}")
        if event["ph"] != "X":
            fail(f"{path}: event {i} has ph={event['ph']!r}, expected 'X'")
        if not isinstance(event["ts"], int) or not isinstance(event["dur"], int):
            fail(f"{path}: event {i} has non-integer ts/dur")
        names.add(event["name"])

    for expected in SPANS[mode]:
        if expected not in names:
            fail(f"{path}: no {expected!r} span recorded (saw {sorted(names)})")

    other = trace.get("otherData")
    if not isinstance(other, dict):
        fail(f"{path}: otherData missing")
    provenance = other.get("provenance")
    if not isinstance(provenance, dict) or "host" not in provenance:
        fail(f"{path}: provenance record missing or lacks 'host'")
    if other.get("droppedEvents") != 0:
        fail(f"{path}: droppedEvents = {other.get('droppedEvents')}")
    print(f"check_obs: {path}: {len(events)} events OK, "
          f"provenance keys: {sorted(provenance)}")
    return events


def check_resamples(events: list, values: dict, rounds: int) -> None:
    comparisons = 0
    clusterings = 0
    for event in events:
        if event["name"] != "clusterer.cluster":
            continue
        args = event["args"]
        if "algorithms" not in args or "repetitions" not in args:
            fail(f"clusterer.cluster span lacks its algorithms/repetitions "
                 f"args: {args}")
        p = int(args["algorithms"])
        comparisons += int(args["repetitions"]) * p * (p - 1) // 2
        clusterings += 1
    expected = 2 * rounds * comparisons
    actual = int(values["relperf_bootstrap_resamples_total"])
    if actual != expected:
        fail(f"relperf_bootstrap_resamples_total = {actual} != 2·R·Σ "
             f"repetitions·p(p−1)/2 = {expected} over {clusterings} "
             f"clusterer.cluster spans at R = {rounds} — every comparison "
             f"draws 2R resamples, settled rounds included")
    print(f"check_obs: resamples_total={actual} = 2·{rounds}·{comparisons} "
          f"comparisons over {clusterings} clusterings")


def parse_metrics(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if not name:
                fail(f"{path}: malformed sample line {line!r}")
            values[name] = value
    return values


def check_metrics(path: str, mode: str) -> dict:
    values = parse_metrics(path)
    for counter in ("relperf_samples_total", "relperf_samples_fixed_n_total",
                    "relperf_adaptive_rounds", "relperf_clusterings_total",
                    "relperf_bootstrap_resamples_total"):
        if counter not in values:
            fail(f"{path}: {counter} missing")
    if not any(name.startswith("relperf_build_info{") for name in values):
        fail(f"{path}: relperf_build_info info metric missing")

    samples_total = int(values["relperf_samples_total"])
    fixed_n_total = int(values["relperf_samples_fixed_n_total"])
    clusterings = int(values["relperf_clusterings_total"])
    engine_rounds = int(values["relperf_adaptive_rounds"])
    if samples_total <= 0:
        fail(f"{path}: relperf_samples_total = {samples_total}")
    if samples_total > fixed_n_total:
        fail(f"{path}: samples_total {samples_total} exceeds the fixed-N "
             f"plan cost {fixed_n_total}")

    if mode == "adaptive" and clusterings != engine_rounds + 1:
        fail(f"{path}: relperf_clusterings_total = {clusterings} != "
             f"relperf_adaptive_rounds + 1 = {engine_rounds + 1} — each "
             f"shard clusters once per engine round and the merge once more")

    if mode == "coordinated":
        for counter in ("relperf_coordination_rounds",
                        "relperf_stopset_broadcast_total"):
            if counter not in values:
                fail(f"{path}: {counter} missing")
        rounds = int(values["relperf_coordination_rounds"])
        broadcasts = int(values["relperf_stopset_broadcast_total"])
        if rounds <= 0:
            fail(f"{path}: relperf_coordination_rounds = {rounds} — the "
                 f"coordinator never ran a round")
        if broadcasts <= 0 or broadcasts % rounds != 0:
            fail(f"{path}: relperf_stopset_broadcast_total = {broadcasts} "
                 f"is not a positive multiple of the {rounds} coordination "
                 f"rounds — each round must broadcast to every shard")
        if engine_rounds != rounds:
            fail(f"{path}: relperf_adaptive_rounds = {engine_rounds} != "
                 f"relperf_coordination_rounds = {rounds} — the coordinator "
                 f"runs one round per engine round")
        if clusterings != rounds:
            fail(f"{path}: relperf_clusterings_total = {clusterings} != "
                 f"relperf_coordination_rounds = {rounds} — each round "
                 f"clusters once and publishes its last clustering")

    if mode == "fixed-n":
        if samples_total != fixed_n_total:
            fail(f"{path}: samples_total {samples_total} != the fixed-N plan "
                 f"cost {fixed_n_total} — a fixed-N run draws every planned "
                 f"sample")
        if engine_rounds != 0:
            fail(f"{path}: relperf_adaptive_rounds = {engine_rounds} — "
                 f"fixed-N shards only measure, they never enter the engine")
        if clusterings != 1:
            fail(f"{path}: relperf_clusterings_total = {clusterings} — a "
                 f"fixed-N run clusters the merged set exactly once")

    print(f"check_obs: {path}: {len(values)} samples OK, "
          f"samples_total={samples_total}")
    return values


def csv_sample_sum(path: str) -> int:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["algorithm", "samples"]:
            fail(f"{path}: unexpected header {reader.fieldnames}")
        total = 0
        rows = 0
        for row in reader:
            total += int(row["samples"])
            rows += 1
    if rows == 0:
        fail(f"{path}: no data rows")
    print(f"check_obs: {path}: {rows} algorithms, {total} samples")
    return total


def main() -> None:
    usage = (f"usage: {sys.argv[0]} TRACE_JSON METRICS_PROM SAMPLES_CSV "
             f"--rounds R [--coordinated | --fixed-n]")
    argv = sys.argv[1:]
    rounds = None
    if "--rounds" in argv:
        at = argv.index("--rounds")
        if at + 1 >= len(argv) or not argv[at + 1].isdigit():
            fail(usage)
        rounds = int(argv[at + 1])
        del argv[at:at + 2]
    flags = [a for a in argv if a in ("--coordinated", "--fixed-n")]
    argv = [a for a in argv if a not in flags]
    if len(argv) != 3 or len(flags) > 1 or not rounds:
        fail(usage)
    mode = flags[0][2:] if flags else "adaptive"
    trace_path, metrics_path, samples_path = argv

    events = check_trace(trace_path, mode)
    values = check_metrics(metrics_path, mode)
    check_resamples(events, values, rounds)
    samples_total = int(values["relperf_samples_total"])
    csv_total = csv_sample_sum(samples_path)

    if samples_total != csv_total:
        fail(f"relperf_samples_total ({samples_total}) != samples CSV sum "
             f"({csv_total}) — the counters and the measurements disagree")
    print("check_obs: OK — metrics agree with the samples CSV")


if __name__ == "__main__":
    main()

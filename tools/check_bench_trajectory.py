#!/usr/bin/env python3
"""Cross-PR perf-regression gate over the BENCH_*.json artifacts.

Every JSON-emitting bench drops a BENCH_<name>.json into the working
directory; the committed snapshots under bench/baselines/ are the
trajectory so far. This script compares current artifacts against the
baselines and fails the build when the trajectory bends the wrong way.

Only dimensionless metrics are compared — speedups, scaling slopes,
allocation counts and ratios. Raw seconds and rates depend on the
machine and the build type, so they are recorded but never gated.

Rules:
  - a baselined bench whose artifact is missing from the current run is
    a hard failure (a bench that silently stopped emitting its JSON
    would otherwise retire itself from the gate);
  - any previously recorded higher-is-better metric (speedup, ratio)
    may not drop more than 10% below its baseline;
  - any lower-is-better count (allocation counts) may not rise more
    than 10% above its baseline;
  - scaling slopes get an absolute slack (default 0.35) instead of a
    relative one: slopes are noisy near zero and a ratio test would be
    meaningless there;
  - BENCH_exact_hotpath.json additionally carries hard gates that hold
    regardless of the baseline: differential_ok must be true and the
    minimum allocation-bound speedup must stay >= 2x. The arena rework
    bought that margin; future PRs do not get to spend it.

Metrics present in the current artifact but not the baseline are
reported as new and pass — refresh the baselines to start gating them.

Usage: check_bench_trajectory.py [--baselines DIR] [--current DIR]
                                 [--slope-slack F] [--tolerance F]
Exit 0 when every gate holds, 1 with per-metric diagnostics otherwise.
"""

import argparse
import json
import math
import os
import sys

# Metric-name fragments that mark a value as machine/build dependent:
# recorded in the artifacts, never gated.
TIMING_FRAGMENTS = ("_sec", "_nanos", "_micros", "_ms", "per_sec", "_qps")

# Hard floors that hold independent of any baseline.
HOTPATH_MIN_ALLOC_BOUND_SPEEDUP = 2.0
STREAM_MIN_SUSTAINED_OPS_PER_SEC = 1.0e6
SATURATE_MAX_ROUTED_SLOPE = 1.45
SATURATE_MIN_PRUNE_SPEEDUP = 2.0
SAT_MIN_WARM_SPEEDUP = 2.0
SAT_MIN_PORTFOLIO_RATIO = 0.25


def flatten(value, prefix=""):
    """Yields (dotted_path, scalar) for every scalar in a JSON tree.

    List elements are keyed by a stable identity — a `name` field when
    the element has one, else the index — so sweep points line up even
    if future PRs append new ones.
    """
    if isinstance(value, dict):
        for key, child in value.items():
            yield from flatten(child, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            tag = child.get("name", str(i)) if isinstance(child, dict) else str(i)
            yield from flatten(child, f"{prefix}[{tag}]")
    elif isinstance(value, bool):
        yield prefix, value
    elif isinstance(value, (int, float)):
        yield prefix, float(value)


def is_timing(path):
    return any(fragment in path for fragment in TIMING_FRAGMENTS)


def direction_of(path):
    """'up' if higher is better, 'down' if lower is better, 'slope' for
    scaling exponents, None when the metric is not gated."""
    leaf = path.rsplit(".", 1)[-1]
    if "slope" in leaf:
        return "slope"
    if "speedup" in leaf or "ratio" in leaf:
        return "up"
    if "alloc" in leaf and not is_timing(leaf):
        return "down"
    return None


def compare_file(name, baseline, current, tolerance, slope_slack):
    """Returns a list of failure strings for one bench artifact."""
    failures = []
    base_metrics = dict(flatten(baseline))
    cur_metrics = dict(flatten(current))

    for path, base in sorted(base_metrics.items()):
        if path not in cur_metrics:
            # Dropping a previously recorded metric silently shrinks the
            # gate; make it visible.
            failures.append(f"{name}: metric '{path}' disappeared "
                            f"(baseline recorded {base})")
            continue
        cur = cur_metrics[path]
        if isinstance(base, bool) or isinstance(cur, bool):
            # Boolean invariants (differential_ok): true may not decay.
            if base is True and cur is not True:
                failures.append(f"{name}: '{path}' was true at baseline, "
                                f"now {cur}")
            continue
        if is_timing(path):
            continue
        direction = direction_of(path)
        if direction == "up":
            floor = base * (1.0 - tolerance)
            if cur < floor:
                failures.append(
                    f"{name}: '{path}' regressed: {cur:.4g} < "
                    f"{floor:.4g} (baseline {base:.4g}, -{tolerance:.0%})")
        elif direction == "down":
            ceiling = base * (1.0 + tolerance)
            if cur > ceiling:
                failures.append(
                    f"{name}: '{path}' regressed: {cur:.4g} > "
                    f"{ceiling:.4g} (baseline {base:.4g}, +{tolerance:.0%})")
        elif direction == "slope":
            if cur > base + slope_slack:
                failures.append(
                    f"{name}: '{path}' regressed: {cur:.3f} > "
                    f"{base:.3f} + {slope_slack} slack")
    return failures


def hotpath_gates(current):
    """Baseline-independent floors for the exact hot path."""
    failures = []
    if current.get("differential_ok") is not True:
        failures.append("exact_hotpath: differential_ok is not true — the "
                        "arena search diverged from the frozen legacy search")
    speedup = current.get("min_alloc_bound_speedup")
    if not isinstance(speedup, (int, float)) or math.isnan(float(speedup)):
        failures.append("exact_hotpath: min_alloc_bound_speedup missing")
    elif speedup < HOTPATH_MIN_ALLOC_BOUND_SPEEDUP:
        failures.append(
            f"exact_hotpath: min alloc-bound speedup {speedup:.2f}x is below "
            f"the {HOTPATH_MIN_ALLOC_BOUND_SPEEDUP}x floor")
    for point in current.get("points", []):
        if point.get("differential_ok") is not True:
            failures.append(
                f"exact_hotpath: point '{point.get('name')}' diverged from "
                "the legacy search")
    return failures


def stream_gates(current):
    """Baseline-independent floors for the streaming ingest pipeline.

    Throughput fields end in per_sec, so the baseline comparison records
    but never gates them (machine-dependent); the sustained floor and the
    two correctness booleans are enforced here instead.
    """
    failures = []
    if current.get("differential_ok") is not True:
        failures.append("stream: differential_ok is not true — streamed "
                        "verdicts diverged from verify_coherence_routed")
    if current.get("memory_bounded_ok") is not True:
        failures.append("stream: memory_bounded_ok is not true — ordered-mode "
                        "resident bytes grew with trace length")
    sustained = current.get("sustained_ops_per_sec")
    if not isinstance(sustained, (int, float)) or math.isnan(float(sustained)):
        failures.append("stream: sustained_ops_per_sec missing")
    elif sustained < STREAM_MIN_SUSTAINED_OPS_PER_SEC:
        failures.append(
            f"stream: sustained ingest rate {sustained:.3g} ops/sec is below "
            f"the {STREAM_MIN_SUSTAINED_OPS_PER_SEC:.0e} floor")
    return failures


def saturate_gates(current):
    """Baseline-independent floors for the coherence-order saturation tier.

    The routed decide path claims near-linear scaling (n*alpha(n) to
    n log n on forced-order traces); the fitted slope gets a hard cap
    well above the claim so baseline drift can never ratchet it into
    quadratic territory. The must-precede oracle must keep paying for
    itself (>= 2x on its best point) and the pruned search must have
    stayed bit-identical to the unpruned one.
    """
    failures = []
    if current.get("differential_ok") is not True:
        failures.append("saturate: differential_ok is not true — the "
                        "saturation tier or the pruned exact search diverged "
                        "from the plain verdicts")
    slope = current.get("routed_slope")
    if not isinstance(slope, (int, float)) or math.isnan(float(slope)):
        failures.append("saturate: routed_slope missing")
    elif slope > SATURATE_MAX_ROUTED_SLOPE:
        failures.append(
            f"saturate: routed decide-path slope n^{slope:.2f} exceeds the "
            f"n^{SATURATE_MAX_ROUTED_SLOPE} cap — the tier is no longer "
            "near-linear on forced-order traces")
    speedup = current.get("max_prune_speedup")
    if not isinstance(speedup, (int, float)) or math.isnan(float(speedup)):
        failures.append("saturate: max_prune_speedup missing")
    elif speedup < SATURATE_MIN_PRUNE_SPEEDUP:
        failures.append(
            f"saturate: best prune speedup {speedup:.2f}x is below the "
            f"{SATURATE_MIN_PRUNE_SPEEDUP}x floor")
    for point in current.get("prune_points", []):
        if point.get("differential_ok") is not True:
            failures.append(
                f"saturate: prune point '{point.get('name')}' diverged from "
                "the unpruned search")
    return failures


def sat_gates(current):
    """Baseline-independent floors for the incremental SAT core.

    The warm kVscc sweep bought >= 2x over per-query cold re-encodes at
    the largest bench point; that margin is a hard floor, not baseline
    slack. differential_ok covers warm-vs-cold statuses, the suffix
    extension, portfolio verdict equality, and the portfolio instance's
    escalation to the engine race — a speedup from changed semantics, or
    from timing stage 1 instead of the race, never passes. The portfolio race is tail-latency
    insurance, so it is allowed to cost wall clock on instances a single
    engine handles well, but only up to a 4x overhead ceiling
    (default/race ratio >= 0.25)."""
    failures = []
    if current.get("differential_ok") is not True:
        failures.append("sat_incremental: differential_ok is not true — warm "
                        "sweep, suffix extension, or portfolio verdicts "
                        "diverged from the cold paths")
    speedup = current.get("warm_speedup_largest")
    if not isinstance(speedup, (int, float)) or math.isnan(float(speedup)):
        failures.append("sat_incremental: warm_speedup_largest missing")
    elif speedup < SAT_MIN_WARM_SPEEDUP:
        failures.append(
            f"sat_incremental: warm sweep speedup {speedup:.2f}x at the "
            f"largest kVscc point is below the {SAT_MIN_WARM_SPEEDUP}x floor")
    ratio = current.get("portfolio_default_over_race")
    if not isinstance(ratio, (int, float)) or math.isnan(float(ratio)):
        failures.append("sat_incremental: portfolio_default_over_race missing")
    elif ratio < SAT_MIN_PORTFOLIO_RATIO:
        failures.append(
            f"sat_incremental: portfolio race costs {1 / ratio:.1f}x the "
            f"default exact tier — above the "
            f"{1 / SAT_MIN_PORTFOLIO_RATIO:.0f}x overhead ceiling")
    for point in current.get("points", []):
        if point.get("differential_ok") is not True:
            failures.append(
                f"sat_incremental: point '{point.get('name')}' warm statuses "
                "diverged from the cold re-encodes")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed BENCH_*.json snapshots")
    parser.add_argument("--current", default=".",
                        help="directory holding this run's BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative slack for ratio-like metrics")
    parser.add_argument("--slope-slack", type=float, default=0.35,
                        help="absolute slack for scaling slopes")
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"baseline directory '{args.baselines}' not found",
              file=sys.stderr)
        return 1

    names = sorted(f for f in os.listdir(args.baselines)
                   if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        print(f"no BENCH_*.json baselines under '{args.baselines}'",
              file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for name in names:
        with open(os.path.join(args.baselines, name)) as f:
            baseline = json.load(f)
        current_path = os.path.join(args.current, name)
        if not os.path.exists(current_path):
            failures.append(f"{name}: baselined bench artifact missing from "
                            f"'{args.current}' — did its bench stop emitting?")
            continue
        with open(current_path) as f:
            current = json.load(f)
        failures.extend(compare_file(name, baseline, current,
                                     args.tolerance, args.slope_slack))
        if name == "BENCH_exact_hotpath.json":
            failures.extend(hotpath_gates(current))
        if name == "BENCH_stream.json":
            failures.extend(stream_gates(current))
        if name == "BENCH_saturate.json":
            failures.extend(saturate_gates(current))
        if name == "BENCH_sat_incremental.json":
            failures.extend(sat_gates(current))
        compared += 1

    # Surface new artifacts that have no baseline yet (informational).
    extra = sorted(f for f in os.listdir(args.current)
                   if f.startswith("BENCH_") and f.endswith(".json")
                   and f not in names)
    for name in extra:
        print(f"note: {name} has no baseline yet; copy it into "
              f"{args.baselines}/ to start gating it")

    if failures:
        print(f"trajectory check FAILED ({len(failures)} violation(s) "
              f"across {compared} benches):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"trajectory check passed: {compared} benches within tolerance "
          f"(ratio {args.tolerance:.0%}, slope +{args.slope_slack})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two bench_snapshot.sh JSON files and flag regressions.

    scripts/bench_compare.py BENCH_pr5.json BENCH_pr6.json
    scripts/bench_compare.py old.json new.json --threshold 10
    scripts/bench_compare.py old.json new.json --metric items_per_second

Prints a per-benchmark delta table for every metric the snapshots share;
--metric SUBSTR restricts the table (and the gate) to metrics whose name
contains SUBSTR. With --threshold PCT the script exits nonzero when any metric got worse by
more than PCT percent — "worse" is metric-aware: throughput metrics
(items_per_second) should not drop, cost metrics (ns_per_iter, ns_per_dequeue,
allocs_per_*) should not rise. A failing exit lists every regressed metric
with its baseline value, candidate value and delta. Stdlib only; no
third-party imports.

Caveat for gating: snapshots taken on different machines (see the embedded
"context" block) or from quick single-repetition runs are noisy — use a
generous threshold (>= 10%) or multi-repetition snapshots for CI-style gates.
"""

import argparse
import json
import sys

# Metrics where a larger value is an improvement; everything else numeric is
# treated as a cost. Section-level scalars (e.g. pipeline_radix_over_heap)
# are reported but never gated — they are ratios, not regressions.
HIGHER_IS_BETTER = {"items_per_second"}
SKIP_KEYS = {"preset", "repetitions", "git", "context"}


def benchmark_sections(doc):
    """Yields (section, benchmark, metrics-dict) for every benchmark row."""
    for section, body in doc.items():
        if section in SKIP_KEYS or not isinstance(body, dict):
            continue
        for bench, metrics in body.items():
            if isinstance(metrics, dict):
                yield section, bench, metrics


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}"
    return f"{v:g}" if isinstance(v, float) else str(v)


def main():
    parser = argparse.ArgumentParser(
        description="diff two bench snapshot JSON files")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="exit 1 if any metric regresses by more than PCT percent")
    parser.add_argument(
        "--metric", default=None, metavar="SUBSTR",
        help="only consider metrics whose name contains SUBSTR")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base = {(s, b): m for s, b, m in benchmark_sections(base_doc)}
    cand = {(s, b): m for s, b, m in benchmark_sections(cand_doc)}

    shared = sorted(base.keys() & cand.keys())
    only_base = sorted(base.keys() - cand.keys())
    only_cand = sorted(cand.keys() - base.keys())
    if not shared:
        sys.exit("error: the snapshots share no benchmarks")


    rows = []
    regressions = []
    for key in shared:
        section, bench = key
        for metric in base[key]:
            if args.metric is not None and args.metric not in metric:
                continue
            old, new = base[key][metric], cand[key].get(metric)
            if not isinstance(old, (int, float)) or \
                    not isinstance(new, (int, float)):
                continue
            if old == 0:
                delta_pct = 0.0 if new == 0 else float("inf")
            else:
                delta_pct = 100.0 * (new - old) / old
            worse = (-delta_pct if metric in HIGHER_IS_BETTER else delta_pct)
            rows.append((section, bench, metric, old, new, delta_pct, worse))
            if args.threshold is not None and worse > args.threshold:
                regressions.append(rows[-1])

    if not rows:
        sys.exit(f"error: no shared metric matches --metric {args.metric}")

    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    header = (f"{'section':<{widths[0]}}  {'benchmark':<{widths[1]}}  "
              f"{'metric':<{widths[2]}}  {'base':>12}  {'new':>12}  delta")
    print(f"baseline  {args.baseline} (git {base_doc.get('git', '?')})")
    print(f"candidate {args.candidate} (git {cand_doc.get('git', '?')})")
    print()
    print(header)
    print("-" * len(header))
    for section, bench, metric, old, new, delta_pct, worse in rows:
        gate = ""
        if args.threshold is not None and worse > args.threshold:
            gate = "  REGRESSION"
        print(f"{section:<{widths[0]}}  {bench:<{widths[1]}}  "
              f"{metric:<{widths[2]}}  {fmt(old):>12}  {fmt(new):>12}  "
              f"{delta_pct:+7.1f}%{gate}")

    for key in only_base:
        print(f"only in baseline: {key[0]}/{key[1]}")
    for key in only_cand:
        print(f"only in candidate: {key[0]}/{key[1]}")

    if args.threshold is not None:
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed past "
                  f"{args.threshold:g}% — failing:")
            for section, bench, metric, old, new, delta_pct, _ in regressions:
                print(f"  {section}/{bench}/{metric}: "
                      f"{fmt(old)} -> {fmt(new)} ({delta_pct:+.1f}%)")
            return 1
        print(f"\nno metric regressed past {args.threshold:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())

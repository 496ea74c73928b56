#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py`` (all workloads).

    python3 bench/compare.py base.json new.json

One row per (workload, end-to-end metric): the base median, the new median,
their ratio, and a verdict against the bound ``BENCHMARK.json`` fixes for
that metric:

* ``better`` / ``worse``   the medians differ by more than the bound
* ``within-bound``         they do not
* ``unresolved``           either side's own spread (distance between the
                           quartiles of its runs — of its rounds when it has
                           fewer than four runs — over their median) is wider
                           than the bound, so the pair decides nothing

Per-layer metrics found in both files are listed below the table and never
gated.  Exits non-zero on any ``worse`` and on any failed operation or
failed output check in the new file.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def quartiles(values: list) -> tuple[float, float, float]:
    """First quartile, median, third quartile (one value: itself thrice)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if not values:
        return 0.0
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _side(document: dict, workload: str, metric: str) -> tuple[list, float]:
    """Run-level values of one metric, and the spread to judge it by."""
    values, rounds = [], []
    for run in document["runs"]:
        detail = run["workloads"].get(workload)
        if detail is None or metric not in detail["metrics"]:
            continue
        values.append(detail["metrics"][metric]["value"])
        rounds.extend(detail.get("samples", {}).get(metric, []))
    return values, _spread(values if len(values) >= 4 else rounds)


def _failures(document: dict) -> list:
    found = []
    for run in document["runs"]:
        for name, detail in run["workloads"].items():
            if detail["failed"] or not detail["correct"]:
                found.append(
                    f"{name} (seed {run['seed']}): {detail['failed']} of "
                    f"{detail['attempted']} operations failed, "
                    f"{len(detail.get('problems', []))} checks did not hold"
                )
    return found


def compare(base: dict, new: dict, spec: dict) -> int:
    status = 0
    gated = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<24}{'metric':<22}{'base':>14}{'new':>14}{'new/base':>10}"
          f"{'bound':>7}  verdict")
    for entry in spec["workloads"]:
        for name, metric in gated.items():
            old_values, old_spread = _side(base, entry["name"], name)
            new_values, new_spread = _side(new, entry["name"], name)
            if not old_values or not new_values:
                continue
            old, now = statistics.median(old_values), statistics.median(new_values)
            change = (now - old) / old if old else 0.0
            worse_by = change if metric["better"] == "lower" else -change
            if max(old_spread, new_spread) > metric["bound"]:
                verdict = (f"unresolved (spread {old_spread:.3f} / {new_spread:.3f})")
            elif worse_by > metric["bound"]:
                verdict = "worse"
                status = 1
            elif -worse_by > metric["bound"]:
                verdict = "better"
            else:
                verdict = "within-bound"
            print(f"{entry['name']:<24}{name:<22}{old:>14.3f}{now:>14.3f}"
                  f"{now / old if old else 0.0:>10.3f}{metric['bound']:>7.2f}  {verdict}")

    layer_rows = []
    for entry in spec["workloads"]:
        for metric in spec["per_layer"]:
            old_values, _ = _side(base, entry["name"], metric["name"])
            new_values, _ = _side(new, entry["name"], metric["name"])
            if old_values and new_values:
                layer_rows.append((entry["name"], metric["name"], metric["unit"],
                                   statistics.median(old_values),
                                   statistics.median(new_values)))
    if layer_rows:
        print("\nper-layer metrics (never gated)")
        for workload, name, unit, old, now in layer_rows:
            ratio = f"{now / old:.3f}" if old else "-"
            print(f"{workload:<24}{name:<52}{old:>16.3f}{now:>16.3f} {unit:<6} {ratio:>8}")

    for failure in _failures(new):
        print(f"FAILED: {failure}")
        status = 1
    return status


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return compare(_load(argv[1]), _load(argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

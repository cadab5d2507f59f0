#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

    python3 ckbench/compare.py OLD_DIR NEW_DIR

Each directory holds ``result-*.json`` files written by ``run.py`` (its
``ckbench/out/`` after a set of runs).  For every workload and metric
present on both sides it prints the two medians, the change, and each
side's spread (quartile distance over median).  Results taken on
different kernel backends measure different programs, so the comparison
is refused (exit 2).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict:
    runs: dict[tuple, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def backends(runs: dict) -> set:
    return {rec["env"]["kernel_backend"] for recs in runs.values() for rec in recs}


def spread(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    if not old or not new:
        print("error: no result files found", file=sys.stderr)
        return 2
    if backends(old) != backends(new) or len(backends(old)) != 1:
        print(f"error: kernel backends differ ({sorted(backends(old))} vs {sorted(backends(new))}); "
              "refusing to compare", file=sys.stderr)
        return 2
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"{workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(old[key])} vs {len(new[key])} runs)")
        names = [n for n in old[key][0]["metrics"] if n in new[key][0]["metrics"]]
        for name in names:
            a, sa = spread([r["metrics"][name] for r in old[key]])
            b, sb = spread([r["metrics"][name] for r in new[key]])
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:28s} {a:14.6g} -> {b:14.6g}  {change:>8s}  spread {sa:.1%} / {sb:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

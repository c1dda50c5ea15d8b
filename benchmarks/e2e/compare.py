"""Compare two sets of benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

A and B are files that ``bench.py --out`` appended records to, one set
of runs each.  For every (workload, metric) pair the script prints each
set's median and quartiles and whether the two medians agree within
the metric's bound in ``BENCHMARK.json``: ``|median B - median A| <=
bound * |median A|``.  The failure share of each run (``failed_frac``)
must agree exactly.  Per-layer metrics have no bound and are printed
for information.  Exits 1 on any disagreement, or when a pair is in
only one set.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from bench import BenchError, load_spec

Key = Tuple[str, str]


def load_runs(path: str) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            result = record["result"]
            metrics = {name: metric["value"]
                       for name, metric in result["metrics"].items()}
            metrics["failed_frac"] = result["failed"] / result["attempted"]
            for name, value in metrics.items():
                values.setdefault((record["workload"], name), []).append(value)
    return values


def quartiles(values: List[float]) -> List[float]:
    """[first quartile, median, third quartile]."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    bounds["failed_frac"] = 0.0
    a, b = load_runs(argv[0]), load_runs(argv[1])
    disagreements = 0
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if key not in a or key not in b:
            print(f"{workload:14} {name:44} only in "
                  f"{'A' if key in a else 'B'}")
            disagreements += 1
            continue
        qa, qb = quartiles(a[key]), quartiles(b[key])
        bound = bounds.get(name)
        if bound is None:
            verdict = "no bound"
        elif abs(qb[1] - qa[1]) <= bound * abs(qa[1]):
            verdict = f"agree within {bound:g}"
        else:
            verdict = f"DISAGREE beyond {bound:g}"
            disagreements += 1
        print(f"{workload:14} {name:44} "
              f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a[key])}  "
              f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b[key])}  "
              f"{verdict}")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

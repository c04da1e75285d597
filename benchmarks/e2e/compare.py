"""Compare two ``results.json`` files of the end-to-end benchmark.

    python benchmarks/e2e/compare.py A.json B.json

A is the baseline, B the change.  For every workload and end-to-end
metric it prints each side's median and quartiles and a verdict, using
the bounds in ``BENCHMARK.json``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved``  — better by more than the bound;
* ``ok``        — within the bound either way;
* ``unresolved`` — one side's own interquartile spread exceeds the
  bound, so the medians cannot be told apart (unless every B sample
  reads better than every A sample, which is then not a regression).

A higher ``failed_frac`` in B is a regression too.  Exit code 1 on any
regression, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import workloads


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(samples, n=4)`` gives them."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The verdict for one metric and B's change, signed so > 0 is worse."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return ("improved" if change < -bound else "ok"), change
        return "unresolved", change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "ok", change


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(a: dict, b: dict, metrics: list[dict]) -> int:
    """Print one row per workload and metric; returns the exit code."""
    regressed = False
    print(f"{'workload':14} {'metric':16} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'worse':>8}  verdict")
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        side_a = a["workloads"].get(name)
        side_b = b["workloads"].get(name)
        if side_a is None or side_b is None:
            print(f"{name:14} present in only one file")
            continue
        for metric in metrics:
            sa = side_a["metrics"].get(metric["name"], {}).get("samples")
            sb = side_b["metrics"].get(metric["name"], {}).get("samples")
            if not sa or not sb:
                print(f"{name:14} {metric['name']:16} not measured on both sides")
                continue
            result, change = verdict(sa, sb, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(
                f"{name:14} {metric['name']:16} {_fmt(quartiles(sa)):>34} "
                f"{_fmt(quartiles(sb)):>34} {change:>+8.1%}  {result}"
            )
        fa, fb = side_a["failed_frac"], side_b["failed_frac"]
        result = "regressed" if fb > fa else "ok"
        regressed |= fb > fa
        print(f"{name:14} {'failed_frac':16} {fa:>34.6g} {fb:>34.6g} {'':>8}  {result}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
    return compare(a, b, workloads.benchmark_metrics("end_to_end"))


if __name__ == "__main__":
    sys.exit(main())

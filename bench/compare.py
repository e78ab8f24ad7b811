#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py A.json B.json

``A`` and ``B`` are files written by ``bench/run.py --out``; ``A`` is
the baseline (the parent commit) and ``B`` the candidate.  Each row is
one workload and end-to-end metric of ``BENCHMARK.json``: both sides'
medians and quartiles, the change of the median, and a verdict:

* ``better`` / ``worse``: the median moved by more than the
  baseline's own spread (better) or by more than the metric's bound
  (worse);
* ``within bound``: neither;
* ``unresolved``: a side's spread (interquartile range over median)
  exceeds the bound, unless every run of one side beats every run of
  the other.

The modeled outputs (latency in cycles, throughput per Gcycle,
crossings per event, the report digest) must be identical on both
sides.  The exit status is 1 when any row is worse, any modeled output
differs or any run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, change of B's median over A's, positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = sign * (b_med - a_med) / abs(a_med)
    b_beats_all = min(sign * v for v in b) > max(sign * v for v in a)
    a_beats_all = min(sign * v for v in a) > max(sign * v for v in b)
    if max(spread(a), spread(b)) > bound and not (a_beats_all or b_beats_all):
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > spread(a) or b_beats_all:
        return "better", change
    return "within bound", change


def _values(report: dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in report["runs"][workload]]


def _modeled(report: dict, workload: str) -> List[str]:
    return sorted({
        json.dumps(
            {k: v for k, v in run["modeled"].items() if k not in ("passes", "problems")},
            sort_keys=True,
        )
        for run in report["runs"][workload]
    })


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[List[str]], bool]:
    """Table rows and whether B passes against A."""
    rows: List[List[str]] = []
    ok = True
    for workload in a["runs"]:
        for m in spec["end_to_end"]:
            va, vb = _values(a, workload, m["name"]), _values(b, workload, m["name"])
            name, change = verdict(va, vb, m["better"], m["bound"])
            ok &= name != "worse"
            qa, qb = quartiles(va), quartiles(vb)
            rows.append([
                workload, m["name"],
                f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]",
                f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]",
                f"{100 * change:+.1f}%", f"{100 * m['bound']:.0f}%", name,
            ])
        same = _modeled(a, workload) == _modeled(b, workload)
        correct = all(r["correct"] and not r["failed"]
                      for side in (a, b) for r in side["runs"][workload])
        ok &= same and correct
        rows.append([
            workload, "modeled", "", "", "", "0",
            ("identical" if same else "DIFFERS")
            + ("" if correct else ", INCORRECT RUNS"),
        ])
    return rows, ok


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, ok = compare(a, b, spec)
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "change", "bound", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two reports written by ``run.py --out``: baseline A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload) with both medians and quartiles
over the report's runs, judged by the metric's own bound and direction
(``metrics.E2E``):

* ``ok`` / ``better`` — B's median is not worse than A's by more than the
  bound;
* ``REGRESSED`` — it is;
* ``unresolved`` — the run-to-run spread (the wider of the two
  inter-quartile ranges, as a share of A's median) exceeds the bound, so
  the medians cannot be told apart — unless every run of B is better
  (or every run worse) than every run of A, which decides it anyway.

Per-layer counts of the traced passes are listed when they differ (under
one seed they repeat exactly on one commit).  Exit code 1 on any
regression or a higher ``fail_ratio``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import E2E, E2E_BY_WORKLOAD, PER_LAYER  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(metric: str, a: list[float], b: list[float]) -> tuple[str, float]:
    """Verdict and the signed worsening (positive = B worse)."""
    _unit, better, bound, kind = E2E[metric]
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if kind == "ceiling":
        limit = max(bound, am)      # fail_ratio: no higher than baseline
        return ("REGRESSED" if bm > limit else "ok"), bm - am
    scale = abs(am) or 1.0
    worse = sign * (bm - am) / scale
    spread = max(a3 - a1, b3 - b1) / scale
    if spread > bound:
        low_a, low_b = [sign * x for x in a], [sign * x for x in b]
        if min(low_b) > max(low_a):
            return "REGRESSED", worse
        if max(low_b) < min(low_a):
            return "better", worse
        return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    return ("better" if worse < -bound else "ok"), worse


def compare(report_a: dict, report_b: dict) -> int:
    bad = 0
    print(f"{'workload':<15}{'metric':<17}{'unit':<6}"
          f"{'A q1/median/q3':>34}{'B q1/median/q3':>34}"
          f"{'worse by':>10}  verdict")
    for name, metrics in E2E_BY_WORKLOAD.items():
        entry_a = report_a["workloads"].get(name)
        entry_b = report_b["workloads"].get(name)
        if not entry_a or not entry_b:
            continue
        for metric in metrics:
            a = [r["e2e"][metric]["value"] for r in entry_a["runs"]]
            b = [r["e2e"][metric]["value"] for r in entry_b["runs"]]
            if not a or not b:      # a traced-only report has no runs
                break
            verdict, worse = judge(metric, a, b)
            bad += verdict == "REGRESSED"
            shown_a = "/".join(f"{q:.5g}" for q in quartiles(a))
            shown_b = "/".join(f"{q:.5g}" for q in quartiles(b))
            print(f"{name:<15}{metric:<17}{E2E[metric][0]:<6}"
                  f"{shown_a:>34}{shown_b:>34}{worse:>+10.2%}  {verdict}")
        traced_a, traced_b = entry_a.get("traced"), entry_b.get("traced")
        if traced_a and traced_b:
            for metric, (unit, _better) in PER_LAYER.items():
                if unit not in ("count", "bytes"):
                    continue
                va = traced_a["per_layer"][metric]
                vb = traced_b["per_layer"][metric]
                if va != vb:
                    print(f"{name:<15}{metric:<40}{va!s:>14} -> {vb!s:<14} "
                          f"count differs")
    print(f"\n{bad} regression(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text()) for p in args)
    for label, report in (("A", report_a), ("B", report_b)):
        meta = report["meta"]
        print(f"{label}: rev {meta['git_rev']} seed {meta['seed']} "
              f"runs {meta['runs']} nproc {meta['nproc']} "
              f"python {meta['python']} numpy {meta['numpy']}")
    if report_a["meta"]["seed"] != report_b["meta"]["seed"]:
        print("warning: different seeds; simulated quantities and counts "
              "will differ")
    return compare(report_a, report_b)


if __name__ == "__main__":
    sys.exit(main())

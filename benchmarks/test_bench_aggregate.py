"""Benchmark — class-space aggregation: parity gate + large-C scaling.

Three gates:

* the aggregated LDDM solve lands on the reference optimum of a
  fig9-style instance (the reduction is exact, so any drift is a solver
  bug, not a modeling one);
* the fig9-regime scaling sweep reaches 10^5 clients aggregated, with a
  >= 10x wall-time speedup over the direct path at the largest size both
  run;
* class grouping on packed integer keys stays >= 5x faster than the
  ``np.unique(axis=0)`` oracle it replaced, at 2e5 clients x 8 replicas
  — a ratio on one host, so no absolute wall-clock threshold.
"""

import time

import numpy as np

from repro.core.lddm import solve_lddm
from repro.core.projection import group_rows
from repro.core.reference import solve_reference
from repro.experiments.scenarios import scaling_problem
from tests.oracles.aggregate import group_rows_unique

#: Sweep sizes: direct timed through 2e4 clients, aggregated to 1e5.
SCALING_CLIENTS = (2_000, 10_000, 20_000, 50_000, 100_000)
DIRECT_LIMIT = 20_000

#: The runtime's LDDM batch budget (``EDRSystem``'s sessions): the
#: timings are the decision latency the scheduler would see.
RUNTIME_LDDM = {"max_iter": 150, "tol": 1e-3, "track_objective": False}


def test_bench_aggregate_parity():
    prob = scaling_problem(256)
    agg = solve_lddm(prob, aggregate=True, max_iter=800, tol=1e-6)
    ref = solve_reference(prob)
    assert agg.objective <= ref.objective * (1 + 1e-4)
    assert prob.violation(agg.allocation) < 1e-8


def _solve_sweep():
    """Aggregated solve at every size, direct only through DIRECT_LIMIT."""
    sweep = {}
    for c in SCALING_CLIENTS:
        prob = scaling_problem(c)
        sweep[c] = (solve_lddm(prob, aggregate=True, **RUNTIME_LDDM),
                    solve_lddm(prob, **RUNTIME_LDDM)
                    if c <= DIRECT_LIMIT else None)
    return sweep


def test_bench_aggregate_scaling(benchmark, report_sink):
    sweep = benchmark.pedantic(_solve_sweep, rounds=1, iterations=1)
    report_sink("aggregate_scaling", "\n".join(
        f"clients {c:>7}  K {agg.n_classes}  "
        f"agg {1000 * agg.solve_time_s:8.1f} ms  direct "
        + ("-" if direct is None else f"{1000 * direct.solve_time_s:.1f} ms")
        for c, (agg, direct) in sweep.items()))
    agg, direct = sweep[max(c for c, (_, d) in sweep.items() if d)]
    speedup = direct.solve_time_s / agg.solve_time_s
    # Acceptance gates: the sweep completes at >= 5e4 clients aggregated,
    # and the aggregated path is >= 10x faster at the largest common size.
    assert max(sweep) >= 50_000
    assert speedup >= 10.0
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["agg_ms"] = [
        round(1000 * agg.solve_time_s, 1) for agg, _ in sweep.values()]


def _best_of(fn, arg, repeats: int = 3):
    best, out = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - start)
    return best, out


def test_bench_aggregate_grouping_ratio():
    rng = np.random.default_rng(2013)
    patterns = rng.random((24, 8)) < 0.6
    mask = patterns[rng.integers(0, 24, size=200_000)]
    oracle_s, want = _best_of(group_rows_unique, mask)
    packed_s, got = _best_of(group_rows, mask)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert oracle_s / packed_s >= 5.0

"""Benchmark — trace reconciliation.

A traced fig9 point must (a) leave the simulation bit-identical to an
untraced run, and (b) produce totals (iterations, batches, warm hits,
simulated solve seconds) that agree exactly with the
``ExperimentResult.extras`` accounting the warm-start benchmarks assert
against.  What tracing costs is ``obs.trace_overhead`` in
``benchmarks/e2e`` (traced vs untraced pass inside one run).
"""

import pytest

from repro.experiments import fig9
from repro.obs import TraceRecorder, from_jsonl, summary

def test_bench_trace_reconciliation(benchmark, tmp_path):
    counts = (24, 48)
    baseline = fig9.run(request_counts=counts)
    rec = TraceRecorder()
    traced = benchmark.pedantic(
        fig9.run, kwargs={"request_counts": counts, "recorder": rec},
        rounds=1, iterations=1)

    # (a) Tracing must not perturb the simulation at all.
    assert traced.edr_mean_response == baseline.edr_mean_response
    assert traced.edr_solve_iterations == baseline.edr_solve_iterations

    # (b) Trace totals reconcile with the result's own accounting.
    s = summary(rec)
    assert s["sessions"]["iterations"] == sum(traced.edr_solve_iterations)
    assert s["sessions"]["sim_s"] \
        == pytest.approx(sum(traced.edr_solve_time))
    batches = s["counters"]["runtime.batches"]
    assert s["sessions"]["count"] == batches
    hits, misses = s["warm_start"]["hits"], s["warm_start"]["misses"]
    assert hits + misses == batches
    # warm_start=True over multi-batch points: the cache must land hits
    # (the regime test_bench_warm_start.py's 1.5x iteration bar rides on).
    assert hits > 0
    assert s["warm_start"]["hit_rate"] > 0.5
    # Transport saw at least the solver-coordination traffic the
    # sessions' precomputed plans account for.
    assert s["net"]["messages"] >= s["sessions"]["messages"]

    # (c) The export round-trips as valid JSONL.
    path = tmp_path / "fig9.jsonl"
    from repro.obs import to_jsonl
    n = to_jsonl(rec, path)
    assert len(from_jsonl(path)) == n > 0

    benchmark.extra_info["records"] = len(rec.records)
    benchmark.extra_info["warm_hit_rate"] = round(s["warm_start"]["hit_rate"], 3)

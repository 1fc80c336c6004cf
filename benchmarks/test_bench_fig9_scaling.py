"""Benchmark — Fig. 9: response-time scaling, EDR vs DONAR."""

from repro.experiments import fig9


def test_bench_fig9_scaling(benchmark, report_sink):
    result = benchmark.pedantic(
        fig9.run, kwargs={"request_counts": fig9.DEFAULT_REQUEST_COUNTS},
        rounds=1, iterations=1)
    report_sink("fig9_scaling", result.render())
    # Paper shape: < 200 ms per request throughout the sweep...
    assert max(result.edr_mean_response) < 0.2
    # ... EDR comparable to DONAR ...
    for e, d in zip(result.edr_mean_response, result.donar_mean_response):
        assert e < 5 * d + 0.2
    # ... and total response work grows (near-linearly) with request count.
    totals = result.edr_total_response
    assert all(b >= a for a, b in zip(totals, totals[1:]))
    benchmark.extra_info["edr_ms"] = [
        round(1000 * v, 1) for v in result.edr_mean_response]
    benchmark.extra_info["donar_ms"] = [
        round(1000 * v, 1) for v in result.donar_mean_response]
    benchmark.extra_info["edr_solve_s"] = [
        round(v, 4) for v in result.edr_solve_time]

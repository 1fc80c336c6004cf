"""Benchmark — the sharded dual-price control plane at 10^6-10^7 clients.

Gates for :mod:`repro.edr.coordinator` at the scale the ROADMAP's
"millions of users" north star cares about: the 10^6-client fig9-style
point must solve end-to-end through the sharded plane inside a fixed
wall budget with a bounded objective gap against the tight monolithic
aggregated solve (and bit-identical allocations across execution
modes), and the shard-routed event stream must keep per-event cost
independent of the total client count.  The elastic-skew gate pins
the long-lived-plane regime: under demand skew the coordinator re-lays
its shards from their own rows, repairing the skew mid-stream.  The 10^7-client
point and the long churn soak carry the ``slow`` marker — ``make
bench`` skips them, ``make bench-full`` runs everything.
"""

import pytest

from repro.experiments import fig9

#: Relative objective gap the sharded answer must stay within.
MAX_REL_GAP = 1e-6

#: End-to-end wall budget for the 10^6-client sharded solve
#: (aggregation + exchange rounds + expansion; measured ~4 s).
WALL_BUDGET_1E6_S = 30.0

#: End-to-end wall budget for the 10^7-client sharded solve
#: (measured ~35 s).
WALL_BUDGET_1E7_S = 180.0

#: Tail-latency bound on a shard-routed client event.
P99_EVENT_MS = 5.0


def test_bench_shard_million_clients(benchmark, report_sink):
    result = benchmark.pedantic(
        fig9.run_sharded_scaling,
        kwargs={"client_counts": (1_000_000,), "n_shards": 4,
                "n_replicas": 6, "n_patterns": 24,
                "check_mode": "process"},
        rounds=1, iterations=1)
    report_sink("shard_scaling", result.render())
    # The acceptance gate: the 10^6-client point solves end-to-end
    # inside the wall budget...
    assert result.sharded_solve_s[-1] <= WALL_BUDGET_1E6_S
    # ...lands within the gap bound of the tight monolithic solve...
    assert result.worst_gap() <= MAX_REL_GAP
    # ...and a second execution mode reproduces the serial allocation
    # bit-for-bit (deterministic exchange rounds).
    assert all(result.modes_identical)
    benchmark.extra_info["sharded_s"] = round(result.sharded_solve_s[-1], 4)
    benchmark.extra_info["worst_gap"] = float(f"{result.worst_gap():.3e}")


def test_bench_shard_event_stream_scale_free(benchmark, report_sink):
    # Same churn stream routed through planes built at 10^5 and 10^6
    # clients: events touch only the owning shard's class rows, so the
    # per-event cost must not grow with the client count.
    small = fig9.run_sharded_events(n_clients=100_000, n_events=200)
    large = benchmark.pedantic(
        fig9.run_sharded_events,
        kwargs={"n_clients": 1_000_000, "n_events": 200},
        rounds=1, iterations=1)
    report_sink("shard_events", small.render() + "\n\n" + large.render())
    # Tail latency stays bounded at both scales...
    assert small.event_p(99) <= P99_EVENT_MS
    assert large.event_p(99) <= P99_EVENT_MS
    # ...and 10x the clients does not mean costlier events (generous
    # 3x margin over the small plane's mean absorbs timer noise).
    assert large.mean_event_ms() <= 3.0 * max(small.mean_event_ms(), 0.05)
    benchmark.extra_info["p99_event_ms"] = round(large.event_p(99), 4)


def test_bench_shard_elastic_skew(benchmark, report_sink):
    # A hot-spot arrival stream skews one shard's demand share past the
    # rebalance threshold: the coordinator must re-lay its shards while
    # the stream runs — no shard-count change — and a process-mode
    # replay must land bit-identical to serial.
    result = benchmark.pedantic(fig9.run_elastic_skew,
                                rounds=1, iterations=1)
    report_sink("shard_elastic", result.render())
    # The skewed-demand scenario must trigger an online re-layout...
    assert result.migrations >= 1
    # ...without ever changing the shard count...
    assert result.resizes == 0
    # ...repairing the skew back within the stream's rebalance_skew...
    assert result.skew_after <= 1.5
    # ...leaving the plane inside the refresh threshold...
    assert result.final_residual <= 1e-3
    # ...and both execution modes replay the stream bit-identically,
    # re-laying at the same events.
    assert result.modes_identical
    benchmark.extra_info["migrations"] = result.migrations


@pytest.mark.slow
def test_bench_shard_ten_million_clients(benchmark, report_sink):
    result = benchmark.pedantic(
        fig9.run_sharded_scaling,
        kwargs={"client_counts": (10_000_000,), "n_shards": 4,
                "n_replicas": 6, "n_patterns": 24,
                "check_mode": "process"},
        rounds=1, iterations=1)
    report_sink("shard_scaling_1e7", result.render())
    assert result.sharded_solve_s[-1] <= WALL_BUDGET_1E7_S
    assert result.worst_gap() <= MAX_REL_GAP
    assert all(result.modes_identical)
    benchmark.extra_info["sharded_s"] = round(result.sharded_solve_s[-1], 4)


@pytest.mark.slow
def test_bench_shard_churn_soak(benchmark, report_sink):
    # Sustained churn against a 10^6-client plane: 1000 mixed events,
    # declines and residual drift recovered inside the coordinator.
    result = benchmark.pedantic(
        fig9.run_sharded_events,
        kwargs={"n_clients": 1_000_000, "n_events": 1000,
                "event_seed": 11},
        rounds=1, iterations=1)
    report_sink("shard_churn_soak", result.render())
    # Tail latency stays bounded across the whole soak...
    assert result.event_p(99) <= P99_EVENT_MS
    # ...and the plane never drifts past the refresh threshold.
    assert result.final_residual <= 1e-3
    benchmark.extra_info["p99_event_ms"] = round(result.event_p(99), 4)

"""Benchmark — the high-throughput traffic engine vs the legacy data plane.

Gates for the coalesced + vectorized engine (``docs/ARCHITECTURE.md``,
"Traffic engine"): at 10^4 requests the end-to-end ``EDRSystem.run``
wall clock must beat the legacy per-request scalar path by at least 5x
while landing on the same trajectory to 1e-9 (per-replica cents, mean
response), the 10^5-request scaling point must complete, and the Fig.
6/7 paper scenarios must render byte-identically under either engine.
"""

import numpy as np
import pytest

from repro.edr.system import NetConfig
from repro.experiments import fig6_fig7
from repro.experiments.runtime_common import ALGORITHMS, run_runtime
from repro.experiments.scenarios import PAPER_DFS, PAPER_VIDEO

#: The acceptance gate: end-to-end runtime speedup at the 10^4 point.
MIN_SPEEDUP_10K = 5.0

#: Per-replica cents / mean-response agreement between the two paths.
MAX_GAP = 1e-9

#: Engine configs: the default (coalesced + vector) and the legacy
#: per-request scalar path it replaces.
NEW = NetConfig(coalesce=True, flow_kernel="vector")
LEGACY = NetConfig(coalesce=False, flow_kernel="scalar")


def _gaps(a, b):
    cents = float(np.max(np.abs(a.cents_by_replica - b.cents_by_replica)))
    resp = abs(a.mean_response - b.mean_response)
    return cents, resp


def _sweep(request_counts, legacy_limit):
    return fig6_fig7.run_traffic_scaling(request_counts=request_counts,
                                         legacy_limit=legacy_limit)


def test_bench_traffic_smoke(benchmark, report_sink):
    # The smallest scaling point, both paths — CI's traffic smoke.
    result = benchmark.pedantic(
        _sweep, kwargs={"request_counts": (1_000,), "legacy_limit": 1_000},
        rounds=1, iterations=1)
    point = result.point(1_000)
    report_sink("traffic_smoke", result.render())
    # Exactness is non-negotiable at any scale; the speedup gate at this
    # size is loose (fixed control-plane cost still dominates).
    assert point.cents_gap <= MAX_GAP
    assert point.response_gap <= MAX_GAP
    assert point.result_new.extras["flows_coalesced"] > 0
    assert point.speedup >= 1.0
    benchmark.extra_info["speedup"] = round(point.speedup, 2)


def test_bench_traffic_speedup_10k(benchmark, report_sink):
    # The tentpole gate: 10^4 requests through the full runtime, both
    # engine paths on the same trace.
    result = benchmark.pedantic(
        _sweep, kwargs={"request_counts": (10_000,), "legacy_limit": 10_000},
        rounds=1, iterations=1)
    point = result.point(10_000)
    report_sink("traffic_speedup_10k", result.render())
    assert point.speedup >= MIN_SPEEDUP_10K, \
        (point.wall_new_s, point.wall_legacy_s)
    assert point.cents_gap <= MAX_GAP
    assert point.response_gap <= MAX_GAP
    benchmark.extra_info["speedup"] = round(point.speedup, 2)


@pytest.mark.slow
def test_bench_traffic_scale_100k(benchmark, report_sink):
    # The scaling headline: 10^5 requests end to end on the new engine
    # (the legacy path is far past its practical range here).
    result = benchmark.pedantic(
        _sweep, kwargs={"request_counts": (100_000,), "legacy_limit": 0},
        rounds=1, iterations=1)
    point = result.point(100_000)
    report_sink("traffic_scale_100k", result.render())
    # Completing with every request answered IS the gate.
    assert len(point.result_new.response_times) == 100_000
    assert point.result_new.extras["flows_coalesced"] > 0


def _fig67_parity_lines():
    lines = []
    for scenario in (PAPER_VIDEO, PAPER_DFS):
        app = scenario.app.name
        new = {a: run_runtime(scenario, a, net=NEW) for a in ALGORITHMS}
        old = {a: run_runtime(scenario, a, net=LEGACY) for a in ALGORITHMS}
        for algo in ALGORITHMS:
            cents_gap, resp_gap = _gaps(new[algo], old[algo])
            lines.append(f"{app}/{algo}: cents_gap={cents_gap:.3e} "
                         f"resp_gap={resp_gap:.3e}")
            assert cents_gap <= MAX_GAP, (app, algo, cents_gap)
            assert resp_gap <= MAX_GAP, (app, algo, resp_gap)
        new_table = fig6_fig7.PerReplicaCostResult(scenario, new).render()
        old_table = fig6_fig7.PerReplicaCostResult(scenario, old).render()
        assert new_table == old_table, f"{app} table differs between engines"
        lines.append(f"{app}: rendered table byte-identical "
                     f"({len(new_table)} bytes)")
    return lines


def test_bench_fig67_engine_parity(benchmark, report_sink):
    # The paper scenarios (Fig. 6 video, Fig. 7 DFS) must be untouched
    # by the engine swap: same per-replica cents and responses to 1e-9
    # for every scheduler, and byte-identical rendered figure tables.
    lines = benchmark.pedantic(_fig67_parity_lines, rounds=1, iterations=1)
    report_sink("traffic_fig67_parity", "\n".join(lines))

"""Coalesced vs per-request data plane: exact runtime parity.

Epoch coalescing plus the vectorized kernel must reproduce the legacy
per-request scalar path to numerical exactness — same per-replica cost,
same response times, same makespan, same delivery and retry accounting —
because weighted max-min fairness makes the aggregate flow's internal
requests drain at exactly the instants their separate flows would have.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.edr.system import EDRSystem, NetConfig, RuntimeConfig, SolverOptions
from repro.workload import FILE_SERVICE, VIDEO_STREAMING

from tests.edr.conftest import burst_trace

PAIR = ((True, "vector"), (False, "scalar"))


def _run(trace, coalesce, kernel, crash=None, restore=None,
         algorithm="lddm"):
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm=algorithm),
        net=NetConfig(coalesce=coalesce, flow_kernel=kernel))
    system = EDRSystem(trace, cfg)
    if crash is not None:
        system.crash_replica(*crash)
    if restore is not None:
        system.restore_replica(*restore)
    return system.run(app="test")


def _assert_parity(a, b):
    np.testing.assert_allclose(a.cents_by_replica, b.cents_by_replica,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(a.joules_by_replica, b.joules_by_replica,
                               rtol=0, atol=1e-6)
    assert a.makespan == pytest.approx(b.makespan, abs=1e-9)
    assert len(a.response_times) == len(b.response_times)
    np.testing.assert_allclose(sorted(a.response_times),
                               sorted(b.response_times), rtol=0, atol=1e-9)
    assert a.extras["retries"] == b.extras["retries"]
    assert a.extras["delivered_mb"] == pytest.approx(
        b.extras["delivered_mb"], abs=1e-6)
    assert a.extras["batches"] == b.extras["batches"]


class TestCoalescedParity:
    @pytest.mark.parametrize("algorithm", ["lddm", "round_robin"])
    def test_small_burst_parity(self, algorithm):
        # Dense enough that several requests land on the same
        # (replica, client) pair within one epoch, so the coalesced
        # path actually aggregates.
        trace = burst_trace(FILE_SERVICE, count=48, n_clients=8, rate=80.0)
        new = _run(trace, True, "vector", algorithm=algorithm)
        old = _run(trace, False, "scalar", algorithm=algorithm)
        _assert_parity(new, old)
        if algorithm == "lddm":
            # Round-robin hands each request whole to one replica, so
            # epochs rarely repeat a (replica, client) pair; only the
            # share-splitting scheduler reliably produces aggregates.
            assert new.extras["flows_coalesced"] > 0
        assert old.extras["flows_coalesced"] == 0

    def test_video_burst_parity(self):
        trace = burst_trace(VIDEO_STREAMING, count=8, n_clients=4, rate=8.0)
        _assert_parity(_run(trace, True, "vector"),
                       _run(trace, False, "scalar"))

    def test_mid_epoch_crash_parity(self):
        # A replica dies while downloads are in flight: cancelled parts
        # report their exact partial delivery and the retry re-broadcast
        # fires at the same instant on both paths.
        trace = burst_trace(VIDEO_STREAMING, count=10, n_clients=5, rate=10.0)
        crash = ("replica2", 0.3)
        new = _run(trace, True, "vector", crash=crash)
        old = _run(trace, False, "scalar", crash=crash)
        assert new.extras["retries"] > 0, \
            "crash must interrupt at least one download for this test"
        _assert_parity(new, old)

    def test_crash_and_rejoin_parity(self):
        trace = burst_trace(FILE_SERVICE, count=32, n_clients=8, rate=12.0)
        crash, restore = ("replica3", 0.2), ("replica3", 1.2)
        _assert_parity(
            _run(trace, True, "vector", crash=crash, restore=restore),
            _run(trace, False, "scalar", crash=crash, restore=restore))

    def test_mixed_modes_also_agree(self):
        # The two tentpole layers are independent: coalescing with the
        # scalar oracle and per-request flows with the vector kernel both
        # land on the same trajectory.
        trace = burst_trace(FILE_SERVICE, count=16, n_clients=8)
        base = _run(trace, True, "vector")
        _assert_parity(base, _run(trace, True, "scalar"))
        _assert_parity(base, _run(trace, False, "vector"))


@settings(max_examples=8, deadline=None)
@given(st.integers(6, 28), st.integers(2, 8), st.integers(0, 999),
       st.sampled_from([None, 0.15, 0.4]))
def test_property_random_trace_parity(count, n_clients, seed, crash_at):
    trace = burst_trace(FILE_SERVICE, count=count, n_clients=n_clients,
                        seed=seed)
    crash = ("replica2", crash_at) if crash_at is not None else None
    new = _run(trace, True, "vector", crash=crash)
    old = _run(trace, False, "scalar", crash=crash)
    _assert_parity(new, old)

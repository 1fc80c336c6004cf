"""Runtime with heterogeneous per-replica NIC capacities (extension)."""

import numpy as np
import pytest

from repro.edr.system import EDRSystem, NetConfig, RuntimeConfig, SolverOptions
from repro.errors import ValidationError

from tests.edr.conftest import burst_trace


class TestHeterogeneousBandwidths:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(net=NetConfig(bandwidths=(100.0,)))  # wrong length
        with pytest.raises(ValidationError):
            RuntimeConfig(net=NetConfig(bandwidths=(0.0,) * 8))

    def test_replica_bandwidths_helper(self):
        cfg = RuntimeConfig()
        assert np.allclose(cfg.replica_bandwidths(), 100.0)
        cfg2 = RuntimeConfig(
            net=NetConfig(bandwidths=tuple(range(10, 90, 10))))
        assert cfg2.replica_bandwidths().tolist() == list(range(10, 80, 10)) \
            + [80]

    def test_small_nic_limits_its_share(self):
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=16, n_clients=16,
                            rate=16.0, seed=4)
        # replica1 is the cheapest but has a tiny NIC.
        bws = (10.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0)
        cfg = RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            net=NetConfig(bandwidths=bws), batch_capacity_fraction=0.35)
        res = EDRSystem(trace, cfg).run(app="video")
        moved = res.extras["transferred_mb"]
        # The capacity constraint caps the cheap replica's share well
        # below an equal-capacity run's.
        equal = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            batch_capacity_fraction=0.35)).run(app="video")
        moved_equal = equal.extras["transferred_mb"]
        assert moved["replica1"] < 0.5 * moved_equal["replica1"]
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)

    def test_homogeneous_path_unchanged(self):
        trace = burst_trace(count=8, n_clients=8, rate=20.0)
        a = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"))).run()
        b = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            net=NetConfig(bandwidths=(100.0,) * 8))).run()
        assert a.total_cents == pytest.approx(b.total_cents, rel=1e-9)

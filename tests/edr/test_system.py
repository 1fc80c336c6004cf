"""Integration tests for the full EDR runtime."""

import numpy as np
import pytest

from repro.edr.system import (
    EDRSystem,
    FaultConfig,
    RuntimeConfig,
    SolverOptions,
)
from repro.errors import ValidationError
from repro.workload.requests import RequestTrace

from tests.edr.conftest import burst_trace


def run_system(trace, algorithm, **cfg_kwargs):
    cfg = RuntimeConfig(solver=SolverOptions(algorithm=algorithm),
                        **cfg_kwargs)
    return EDRSystem(trace, cfg).run(app="test")


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(solver=SolverOptions(algorithm="magic"))

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(batch_capacity_fraction=0.0)

    def test_price_count_mismatch(self):
        trace = burst_trace(count=2)
        with pytest.raises(ValidationError):
            EDRSystem(trace, RuntimeConfig(prices=(1, 2)), n_replicas=3)

    def test_empty_trace(self):
        with pytest.raises(ValidationError):
            EDRSystem(RequestTrace([]), RuntimeConfig())


@pytest.mark.parametrize("algorithm", ["lddm", "cdpsm", "round_robin"])
class TestAllAlgorithmsDeliver:
    def test_everything_delivered(self, algorithm, dfs_burst):
        res = run_system(dfs_burst, algorithm=algorithm)
        assert res.extras["delivered_mb"] == pytest.approx(
            dfs_burst.total_mb(), rel=1e-9)
        assert res.makespan > 0
        assert len(res.response_times) == len(dfs_burst)

    def test_energy_positive_everywhere(self, algorithm, dfs_burst):
        res = run_system(dfs_burst, algorithm=algorithm)
        assert np.all(res.joules_by_replica >= 0)
        assert res.total_joules > 0
        assert res.total_cents > 0


class TestRuntimeShape:
    """The paper's qualitative claims at runtime scale."""

    def test_lddm_cheaper_than_round_robin(self):
        # Transfer-dominated regime (the paper's "peak service hours"):
        # video-sized requests so placement, not solve overhead, dominates.
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=24, n_clients=24,
                            rate=12.0, seed=5)
        lddm = run_system(trace, algorithm="lddm",
                          batch_capacity_fraction=0.35)
        rr = run_system(trace, algorithm="round_robin",
                        batch_capacity_fraction=0.35)
        assert lddm.total_cents < rr.total_cents

    def test_lddm_faster_response_than_cdpsm(self, dfs_burst):
        lddm = run_system(dfs_burst, algorithm="lddm")
        cdpsm = run_system(dfs_burst, algorithm="cdpsm")
        assert lddm.mean_response < cdpsm.mean_response

    def test_lddm_fewer_messages_than_cdpsm(self, dfs_burst):
        lddm = run_system(dfs_burst, algorithm="lddm")
        cdpsm = run_system(dfs_burst, algorithm="cdpsm")
        assert lddm.extras["messages"] < cdpsm.extras["messages"]

    def test_round_robin_no_solve_messages(self, dfs_burst):
        rr = run_system(dfs_burst, algorithm="round_robin")
        # Only request broadcasts + assignments, no solver sync storm.
        lddm = run_system(dfs_burst, algorithm="lddm")
        assert rr.extras["messages"] < lddm.extras["messages"] / 5

    def test_load_concentrates_on_cheap_replicas(self):
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=24, n_clients=24,
                            rate=12.0, seed=7)
        res = run_system(trace, algorithm="lddm",
                         batch_capacity_fraction=0.35)
        joules = res.joules_by_replica
        prices = np.array(RuntimeConfig().prices)
        cheap = joules[prices <= 2].mean()
        expensive = joules[prices >= 6].mean()
        # Cheap replicas work longer windows => more energy there.
        assert cheap > expensive


class TestDeterminism:
    def test_same_trace_same_result(self, dfs_burst):
        a = run_system(dfs_burst, algorithm="lddm")
        b = run_system(dfs_burst, algorithm="lddm")
        assert a.total_cents == b.total_cents
        assert a.makespan == b.makespan
        assert a.response_times == b.response_times


class TestFaultTolerance:
    def test_crash_mid_run_everything_still_delivered(self):
        # Long spread-out trace so the crash lands mid-service.
        trace = burst_trace(count=20, n_clients=10, rate=4.0, seed=3)
        cfg = RuntimeConfig(solver=SolverOptions(algorithm="lddm"))
        system = EDRSystem(trace, cfg)
        # Crash a non-lead replica while transfers are in flight.
        system.crash_replica("replica2", at=1.5)
        res = system.run(app="dfs")
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)
        assert "replica2" not in system.ring.live

    def test_crash_triggers_retries(self):
        # Video transfers last several seconds, so a crash at t=2 lands
        # while flows from the victim are certainly in flight (LDDM's
        # waterfill gives every replica a share).
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=8, n_clients=8,
                            rate=8.0, seed=3)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        # Crash a cheap (price-1), non-lead replica: it certainly carries
        # long-running flows when the fault hits.
        system.crash_replica("replica3", at=2.0)
        res = system.run(app="video")
        assert res.extras["retries"] >= 1
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

    def test_heartbeat_detection_path(self):
        trace = burst_trace(count=10, n_clients=5, rate=4.0, seed=2)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            faults=FaultConfig(heartbeats=True)))
        system.faults.crash_at(1.0, "replica3")  # net-level crash only
        res = system.run(app="dfs")
        # The heartbeat protocol (not the harness) must detect it.
        assert "replica3" not in system.ring.live
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)


class TestPowerProfiles:
    def test_profiles_recorded_at_50hz(self, dfs_burst):
        system = EDRSystem(dfs_burst, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        system.run(app="dfs")
        profiles = system.power_profiles()
        assert set(profiles) == set(system.replica_names)
        for series in profiles.values():
            assert len(series) >= 2
            dt = np.diff(series.times)
            assert np.allclose(dt, 0.02, atol=1e-9)

    def test_power_within_model_envelope(self, dfs_burst):
        system = EDRSystem(dfs_burst, RuntimeConfig(
            solver=SolverOptions(algorithm="cdpsm")))
        system.run(app="dfs")
        pm = system.config.power_model
        for series in system.power_profiles().values():
            assert series.min() >= pm.idle_w - 1e-9
            assert series.max() <= pm.peak_w + 1e-9

    def test_selection_raises_power_above_idle(self, dfs_burst):
        system = EDRSystem(dfs_burst, RuntimeConfig(
            solver=SolverOptions(algorithm="cdpsm")))
        system.run(app="dfs")
        pm = system.config.power_model
        # At least one replica must have been observed above idle+cpu floor.
        peaks = [s.max() for s in system.power_profiles().values()]
        assert max(peaks) > pm.idle_w + 5.0
